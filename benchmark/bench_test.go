package main

import (
	"strings"
	"testing"
	"time"

	protoderive "repro"
)

// TestExpectedAnswersCoverMatrix checks that the expected-answer table has
// exactly one entry per verify-matrix cell.
func TestExpectedAnswersCoverMatrix(t *testing.T) {
	pass := matrixPasses(1, 1)[0]
	if len(pass) != 80 {
		t.Fatalf("a pass has %d cells, want 80", len(pass))
	}
	seen := map[string]bool{}
	for _, c := range pass {
		if _, ok := matrixExpect[c.Key()]; !ok {
			t.Errorf("no expected answer for %s", c.Key())
		}
		seen[c.Key()] = true
	}
	if len(seen) != len(matrixExpect) {
		t.Errorf("table has %d entries for %d distinct cells", len(matrixExpect), len(seen))
	}
}

// TestRenamingPreservesPrimitives checks that a renaming is a bijection on
// primitive names that keeps every place number and parses.
func TestRenamingPreservesPrimitives(t *testing.T) {
	for _, name := range append([]string{"multiinstance"}, matrixSpecs...) {
		src := frozenSpec(name)
		renamed, names := renameSpec(src, newRNG(7, streamDeep))
		orig, err := protoderive.ParseService(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		svc, err := protoderive.ParseService(renamed)
		if err != nil {
			t.Fatalf("%s renamed: %v\n%s", name, err, renamed)
		}
		inverse := map[string]string{}
		for from, to := range names {
			if prev, dup := inverse[to]; dup {
				t.Errorf("%s: %s and %s both renamed to %s", name, prev, from, to)
			}
			inverse[to] = from
		}
		want := map[string]bool{}
		for _, p := range orig.Primitives() {
			cut := strings.IndexAny(p, "0123456789")
			want[names[p[:cut]]+p[cut:]] = true
		}
		got := svc.Primitives()
		if len(got) != len(want) {
			t.Errorf("%s: %d primitives after renaming, want %d", name, len(got), len(want))
		}
		for _, p := range got {
			if !want[p] {
				t.Errorf("%s: unexpected primitive %s after renaming", name, p)
			}
		}
	}
}

// TestSeedInvarianceVerifyDeep: the renaming is an isomorphism, so two
// seeds must give identical verdicts and state counts.
func TestSeedInvarianceVerifyDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("two full multiinstance verifications")
	}
	var first outcome
	for i, seed := range []int64{1, 2} {
		got, _, _, err := facadeVerify(deepInputs(seed, 1)[0], deepCfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("seed %d: %+v, seed 1: %+v", seed, got, first)
		}
	}
}

// TestSeedInvarianceVerifyMatrix: every cell must report the same verdict,
// witness kind and state counts under two seeds (different renamings and
// cell orders).
func TestSeedInvarianceVerifyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("two full matrix passes")
	}
	first := map[string]outcome{}
	for i, seed := range []int64{1, 2} {
		for _, c := range matrixPasses(seed, 1)[0] {
			got, _, _, err := facadeVerify(c.Src, cellCfg(c))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.Key(), err)
			}
			if i == 0 {
				first[c.Key()] = got
			} else if got != first[c.Key()] {
				t.Errorf("%s: seed %d %+v, seed 1 %+v", c.Key(), seed, got, first[c.Key()])
			}
		}
	}
}

// TestFleetFingerprintDeterministic: one simulate-fleet seed must give an
// identical Result.Fingerprint from two independently built models.
func TestFleetFingerprintDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 2; i++ {
		f, err := setupFleet(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.model.Run()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Fingerprint()
		} else if fp := res.Fingerprint(); fp != first {
			t.Errorf("fingerprints differ:\n%s\n%s", first, fp)
		}
	}
}

// TestTracedRunsReproduceFacade runs one traced pass of each workload but
// verify-deep: the traced re-issue of every operation must agree with the
// facade and with the expected answers.
func TestTracedRunsReproduceFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("one traced matrix pass")
	}
	for _, w := range []string{"verify-matrix", "simulate-fleet"} {
		res, err := run(w, 5, time.Nanosecond, true, "")
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: traced run failed %d of %d operations", w, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w, len(res.Metrics), len(perLayer))
		}
	}
}
