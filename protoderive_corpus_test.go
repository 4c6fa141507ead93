package protoderive

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
)

func corpusFiles(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus specs found: %v", err)
	}
	return files
}

// TestCorpusDeriveVerifySweep pushes every checked-in specification through
// the full facade pipeline — parse, derive, verify — in both serial and
// parallel exploration modes and asserts the two modes return the same
// verdict and the same state counts. Specs that violate restrictions R1–R3
// are skipped with the violated rule as the reason; any other error fails.
func TestCorpusDeriveVerifySweep(t *testing.T) {
	// MaxStates bounds the biggest corpus member (multiinstance composes
	// ~100k states) so the sweep stays fast enough for the -race CI run;
	// the serial/parallel agreement the test is after holds regardless of
	// where exploration truncates.
	opts := VerifyOptions{ObsDepth: 4, MaxStates: 20000}
	for _, file := range corpusFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := ParseService(string(src))
			if err != nil {
				var se *SpecError
				if errors.As(err, &se) && se.Rule != "" {
					t.Skipf("corpus spec violates restriction %s: %v", se.Rule, err)
				}
				t.Fatalf("parse: %v", err)
			}
			proto, err := svc.Derive()
			if err != nil {
				t.Fatalf("derive: %v", err)
			}
			if len(proto.Places()) == 0 {
				t.Fatal("derived protocol has no entities")
			}

			serialOpts, parallelOpts := opts, opts
			parallelOpts.Parallel = true
			parallelOpts.Workers = 4
			serial, err := proto.Verify(&serialOpts)
			if err != nil {
				t.Fatalf("serial verify: %v", err)
			}
			parallel, err := proto.Verify(&parallelOpts)
			if err != nil {
				t.Fatalf("parallel verify: %v", err)
			}

			if serial.Ok != parallel.Ok ||
				serial.Complete != parallel.Complete ||
				serial.WeakBisimilar != parallel.WeakBisimilar ||
				serial.TracesEqual != parallel.TracesEqual {
				t.Errorf("serial and parallel verdicts disagree:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
			if serial.ServiceStates != parallel.ServiceStates ||
				serial.ComposedStates != parallel.ComposedStates ||
				serial.Deadlocks != parallel.Deadlocks {
				t.Errorf("serial and parallel exploration sizes disagree:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
			t.Logf("%s: ok=%v complete=%v states(service=%d composed=%d)",
				filepath.Base(file), serial.Ok, serial.Complete, serial.ServiceStates, serial.ComposedStates)
		})
	}
}

// corruptions are deterministic spec mutations: each takes a corpus source
// and yields a damaged variant. The library's contract is that every
// variant comes back as an error or a success — never a panic (the facade
// guard turns an escaped panic into a marked "internal error", which this
// test also treats as a failure).
var corruptions = []struct {
	name   string
	mutate func(string) string
}{
	{"truncate-half", func(s string) string { return s[:len(s)/2] }},
	{"truncate-three-quarters", func(s string) string { return s[:len(s)/4] }},
	{"drop-endspec", func(s string) string { return strings.Replace(s, "ENDSPEC", "", 1) }},
	{"drop-spec", func(s string) string { return strings.Replace(s, "SPEC", "", 1) }},
	{"drop-semicolons", func(s string) string { return strings.ReplaceAll(s, ";", "") }},
	{"drop-parens", func(s string) string {
		return strings.NewReplacer("(", "", ")", "").Replace(s)
	}},
	{"unbalance-choice", func(s string) string { return strings.Replace(s, "[]", "[", 1) }},
	{"strip-places", func(s string) string {
		return strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return -1
			}
			return r
		}, s)
	}},
	{"double-body", func(s string) string { return s + "\n" + s }},
	{"inject-garbage", func(s string) string { return strings.Replace(s, ";", "; \x00\xff>>|[", 1) }},
}

// TestCorpusCorruptionsNeverPanic damages every corpus spec in every
// deterministic way above and runs the result through parse and derive.
func TestCorpusCorruptionsNeverPanic(t *testing.T) {
	for _, file := range corpusFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corruptions {
			t.Run(filepath.Base(file)+"/"+c.name, func(t *testing.T) {
				damaged := c.mutate(string(src))
				svc, err := ParseService(damaged)
				if err != nil {
					requireNotInternal(t, err)
					return
				}
				if _, err := svc.Derive(); err != nil {
					requireNotInternal(t, err)
				}
			})
		}
	}
}

// TestCorpusErrorsCarryPositions asserts that parse failures over damaged
// corpus specs surface as structured SpecErrors with a usable position —
// the daemon maps these to 400 responses with line/col fields.
func TestCorpusErrorsCarryPositions(t *testing.T) {
	sawPosition := false
	for _, file := range corpusFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		damaged := strings.Replace(string(src), "[]", "[", 1)
		if _, err := ParseService(damaged); err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Errorf("%s: error is not a *SpecError: %v", filepath.Base(file), err)
				continue
			}
			if se.Line > 0 {
				sawPosition = true
			}
		}
	}
	if !sawPosition {
		t.Error("no damaged corpus spec produced a position-annotated error")
	}
}

func requireNotInternal(t *testing.T, err error) {
	t.Helper()
	if strings.Contains(err.Error(), "internal error") {
		t.Fatalf("recovered panic escaped as error: %v", err)
	}
}

// TestBarrierSpecHeaderClaims checks the claims of specs/barrier.spec's
// header comment against its service LTS, explored to closure: place 4
// fires after any one arm ("a1 s4 d4" is a trace), the LTS has three
// deadlocks, and no trace extends by delta.
func TestBarrierSpecHeaderClaims(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("specs", "barrier.spec"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := lotos.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := lts.ExploreSpec(sp, lts.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Truncated {
		t.Fatal("barrier service LTS truncated")
	}
	if !lts.AcceptsTrace(g, "a1 s4 d4") {
		t.Error(`"a1 s4 d4" is not a service trace`)
	}
	if n := len(g.Deadlocks()); n != 3 {
		t.Errorf("service LTS has %d deadlocks, want 3", n)
	}
	// The longest trace has five labels (three arms, one s4, d4).
	traces := lts.WeakTraces(g, 8)
	for _, tr := range traces {
		if lts.AcceptsTrace(g, lts.AppendTrace(tr, "delta")) {
			t.Errorf("delta reachable after %q", tr)
		}
	}
	if !lts.AcceptsTrace(g, "b2 c3 s4 d4 a1") {
		t.Error("the arms do not interleave freely")
	}
}
