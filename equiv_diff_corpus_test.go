package protoderive

// Corpus-wide differential validation of the integer equivalence engine
// (internal/equiv engine.go) and the weak-trace engine (internal/lts
// weak.go) against the retained map/string reference checkers: for every
// specs/*.spec, the service graph and the composed protocol graph — plus
// mutated protocol variants from internal/mutate — must get identical
// answers from both implementations on WeakBisimilar, ObservationCongruent,
// StrongBisimilar, NumClassesWeak, the WeakTraces listing,
// WeakTraceEquivalent, TraceDiff and AcceptsTrace. This lives in the root
// package because internal/compose imports internal/equiv, so equiv's own
// tests cannot build composed graphs.

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
	"repro/internal/mutate"
)

// diffLimits keeps the graphs small enough for the quadratic reference
// checker: the differential claim holds wherever exploration truncates.
var diffLimits = lts.Limits{MaxObsDepth: 3, MaxStates: 1200}

// diffMutantsPerSpec bounds the mutant sweep per corpus entry.
const diffMutantsPerSpec = 6

func exploreForDiff(t *testing.T, entities map[int]*lotos.Spec) *lts.Graph {
	t.Helper()
	sys, err := compose.New(entities, compose.Config{Limits: diffLimits})
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	g, err := sys.Explore()
	if err != nil {
		t.Fatalf("explore composed: %v", err)
	}
	return g
}

func assertEngineAgreement(t *testing.T, name string, g1, g2 *lts.Graph) {
	t.Helper()
	if got, want := equiv.WeakBisimilar(g1, g2), equiv.RefWeakBisimilar(g1, g2); got != want {
		t.Errorf("%s: WeakBisimilar engine=%v reference=%v", name, got, want)
	}
	if got, want := equiv.ObservationCongruent(g1, g2), equiv.RefObservationCongruent(g1, g2); got != want {
		t.Errorf("%s: ObservationCongruent engine=%v reference=%v", name, got, want)
	}
	if got, want := equiv.StrongBisimilar(g1, g2), equiv.RefStrongBisimilar(g1, g2); got != want {
		t.Errorf("%s: StrongBisimilar engine=%v reference=%v", name, got, want)
	}
	for i, g := range []*lts.Graph{g1, g2} {
		if got, want := equiv.NumClassesWeak(g), equiv.RefNumClassesWeak(g); got != want {
			t.Errorf("%s: NumClassesWeak(g%d) engine=%d reference=%d", name, i+1, got, want)
		}
	}
	assertTraceAgreement(t, name, g1, g2, diffLimits.MaxObsDepth)
}

// assertTraceAgreement checks the weak-trace engine against the reference
// string enumerator equiv.RefWeakTraces: the trace listings, the bounded
// equivalence verdict, the TraceDiff examples at several limits, and the
// acceptor on every listed trace, its extension by delta and its one-label
// mutations.
func assertTraceAgreement(t *testing.T, name string, g1, g2 *lts.Graph, maxLen int) {
	t.Helper()
	r1, r2 := equiv.RefWeakTraces(g1, maxLen), equiv.RefWeakTraces(g2, maxLen)
	if got, want := equiv.WeakTraceEquivalent(g1, g2, maxLen), reflect.DeepEqual(r1, r2); got != want {
		t.Errorf("%s: WeakTraceEquivalent engine=%v reference=%v", name, got, want)
	}
	for _, limit := range []int{1, 5, math.MaxInt} {
		got1, got2 := equiv.TraceDiff(g1, g2, maxLen, limit)
		want1, want2 := refTraceDiff(r1, r2, limit), refTraceDiff(r2, r1, limit)
		if !reflect.DeepEqual(got1, want1) || !reflect.DeepEqual(got2, want2) {
			t.Errorf("%s: TraceDiff limit %d engine=%q/%q reference=%q/%q", name, limit, got1, got2, want1, want2)
		}
	}
	for i, side := range []struct {
		g   *lts.Graph
		ref []string
	}{{g1, r1}, {g2, r2}} {
		if got := lts.WeakTraces(side.g, maxLen); !reflect.DeepEqual(got, side.ref) {
			t.Errorf("%s: WeakTraces(g%d) engine=%d traces reference=%d", name, i+1, len(got), len(side.ref))
		}
		// Every trace of up to maxLen+1 labels is decided by the longer
		// reference listing.
		long := map[string]bool{}
		alphabet := map[string]bool{"delta": true, "nosuch9": true}
		for _, tr := range equiv.RefWeakTraces(side.g, maxLen+1) {
			long[tr] = true
			for _, l := range lts.ParseTrace(tr) {
				alphabet[l] = true
			}
		}
		check := func(tr string) {
			if got := lts.AcceptsTrace(side.g, tr); got != long[tr] {
				t.Errorf("%s: AcceptsTrace(g%d, %q) engine=%v reference=%v", name, i+1, tr, got, long[tr])
			}
		}
		for _, tr := range side.ref {
			check(tr)
			check(lts.AppendTrace(tr, "delta"))
			tl := lts.ParseTrace(tr)
			for pos := range tl {
				for l := range alphabet {
					m := append([]string(nil), tl...)
					m[pos] = l
					check(lts.JoinTrace(m))
				}
			}
		}
	}
}

// refTraceDiff is TraceDiff specified over two sorted reference listings:
// the first limit traces of a that b lacks, in order.
func refTraceDiff(a, b []string, limit int) []string {
	var out []string
	for _, tr := range a {
		if len(out) >= limit {
			break
		}
		if i := sort.SearchStrings(b, tr); i == len(b) || b[i] != tr {
			out = append(out, tr)
		}
	}
	return out
}

func TestCorpusEquivEngineDifferential(t *testing.T) {
	for _, file := range corpusFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseService(string(src)); err != nil {
				var se *SpecError
				if errors.As(err, &se) && se.Rule != "" {
					t.Skipf("corpus spec violates restriction %s: %v", se.Rule, err)
				}
				t.Fatalf("parse: %v", err)
			}
			sp, err := lotos.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.Derive(sp, core.Options{})
			if err != nil {
				t.Fatalf("derive: %v", err)
			}
			sg, err := lts.ExploreSpec(d.Service.Spec, diffLimits)
			if err != nil {
				t.Fatalf("explore service: %v", err)
			}
			cg := exploreForDiff(t, d.Entities)
			t.Logf("service %d states, composed %d states", sg.NumStates(), cg.NumStates())

			assertEngineAgreement(t, "service vs composed", sg, cg)
			assertEngineAgreement(t, "service vs service", sg, sg)

			mutants := mutate.Generate(d.Entities)
			if len(mutants) > diffMutantsPerSpec {
				mutants = mutants[:diffMutantsPerSpec]
			}
			for _, m := range mutants {
				mg := exploreForDiff(t, m.Entities)
				assertEngineAgreement(t, m.Description, sg, mg)
			}
		})
	}
}
