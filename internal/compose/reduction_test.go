package compose

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

func TestParseReductionsRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Reductions
		str  string
	}{
		{"", 0, "default"},
		{"default", 0, "default"},
		{"none", RedNone, "none"},
		{"all", RedAll | redExplicit, "por+symmetry+spill"},
		{"por", RedPOR | redExplicit, "por"},
		{"symmetry", RedSymmetry | redExplicit, "symmetry"},
		{"sym", RedSymmetry | redExplicit, "symmetry"},
		{"spill", RedSpill | redExplicit, "spill"},
		{"por+symmetry", RedPOR | RedSymmetry | redExplicit, "por+symmetry"},
		{"symmetry,por", RedPOR | RedSymmetry | redExplicit, "por+symmetry"},
		{"POR+Spill", RedPOR | RedSpill | redExplicit, "por+spill"},
	}
	for _, c := range cases {
		got, err := ParseReductions(c.in)
		if err != nil {
			t.Errorf("ParseReductions(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseReductions(%q) = %v, want %v", c.in, got, c.want)
		}
		if got.String() != c.str {
			t.Errorf("ParseReductions(%q).String() = %q, want %q", c.in, got.String(), c.str)
		}
		// The canonical form must parse back to the same mask (modulo the
		// default marker, which "default" keeps at zero).
		back, err := ParseReductions(got.String())
		if err != nil {
			t.Errorf("reparse %q: %v", got.String(), err)
		}
		if back != got && !(got == 0 && back == 0) {
			t.Errorf("reparse %q = %v, want %v", got.String(), back, got)
		}
	}
	if _, err := ParseReductions("warp-drive"); err == nil {
		t.Error("unknown reduction name did not error")
	}
}

func TestEffectiveReductions(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want Reductions
	}{
		{"zero value = POR default", Config{}, RedPOR},
		{"explicit none", Config{Reductions: RedNone}, 0},
		{"explicit mask", Config{Reductions: RedPOR.With(RedSpill)}, RedPOR | RedSpill},
		{"all", Config{Reductions: RedAll | redExplicit}, RedAll},
	}
	for _, c := range cases {
		if got := c.cfg.effectiveReductions(); got != c.want {
			t.Errorf("%s: effectiveReductions() = %v, want %v", c.name, got, c.want)
		}
	}
	// Without must stay distinguishable from the default even when empty.
	if got := (Config{Reductions: RedPOR.Without(RedPOR)}).effectiveReductions(); got != 0 {
		t.Errorf("explicitly emptied mask resolved to %v, want none", got)
	}
}

// multiSrc is the two-instance symmetric shape (specs/multiinstance.spec).
const multiSrc = `SPEC B ||| B WHERE
  PROC B = (a1; (b2; exit ||| c3; exit)) >> g4; exit END
ENDSPEC`

// asymSrc interleaves two syntactically different operands.
const asymSrc = `SPEC (a1; b2; exit) ||| (c1; d2; e2; exit) ENDSPEC`

// pairSrc is a small symmetric shape for full-vs-reduced comparisons where
// exploring the unreduced product twice would dominate the test's runtime.
const pairSrc = `SPEC B ||| B WHERE
  PROC B = a1; b2; c3; exit END
ENDSPEC`

func exploreSrc(t testing.TB, src string, cfg Config) (*System, *lts.Graph) {
	t.Helper()
	d, err := core.Derive(lotos.MustParse(src), core.Options{})
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	sys, err := New(d.Entities, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.Explore()
	if err != nil {
		t.Fatal(err)
	}
	return sys, g
}

// TestSymmetryDetectedAndSound checks the core symmetry claims on the
// two-instance shape: the columns are detected, the orbit-quotient graph is
// strictly smaller, and it is weakly bisimilar to the full product — the
// property every verdict field rests on.
func TestSymmetryDetectedAndSound(t *testing.T) {
	lim := lts.Limits{MaxStates: 300000}
	symSys, gr := exploreSrc(t, pairSrc, Config{Reductions: RedPOR.With(RedSymmetry), Limits: lim})
	if symSys.sym == nil {
		t.Fatal("symmetry not detected on B ||| B")
	}
	if symSys.sym.k != 2 {
		t.Fatalf("detected %d columns, want 2", symSys.sym.k)
	}
	_, gf := exploreSrc(t, pairSrc, Config{Reductions: RedPOR | redExplicit, Limits: lim})
	if gr.Truncated || gf.Truncated {
		t.Fatal("exploration unexpectedly truncated")
	}
	if gr.NumStates() >= gf.NumStates() {
		t.Errorf("symmetry did not shrink the product: %d vs %d states", gr.NumStates(), gf.NumStates())
	}
	if !equiv.WeakBisimilar(gr, gf) {
		t.Error("orbit-quotient product is not weakly bisimilar to the full product")
	}
	ri := symSys.ReductionInfo()
	if ri.SymmetryColumns != 2 || ri.OrbitsCollapsed == 0 {
		t.Errorf("reduction stats did not record the symmetry work: %+v", ri)
	}
	if len(gr.Deadlocks()) != 0 || len(gf.Deadlocks()) != 0 {
		t.Error("conformant shape reported deadlocks")
	}
}

// TestSymmetryConservativelyOff pins a case where detection must refuse:
// asymmetric operands.
func TestSymmetryConservativelyOff(t *testing.T) {
	sys, _ := exploreSrc(t, asymSrc, Config{Reductions: RedPOR.With(RedSymmetry), Limits: lts.Limits{MaxStates: 50000}})
	if sys.sym != nil {
		t.Error("symmetry detected on asymmetric operands")
	}
}

// TestSymmetryRandomizedDifferential doubles every generated service into a
// two-instance interleaving and cross-checks the symmetry-reduced product
// against the full one: never larger, identical bounded weak-trace sets, and
// weakly bisimilar whenever both explorations close. Loss+duplication cells
// run the same comparison under a faulty medium.
func TestSymmetryRandomizedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	faults := []FaultModel{{}, {Loss: true, Duplication: true}}
	checked := 0
	for seed := int64(1); checked < 12 && seed < 200; seed++ {
		g := &genService{rng: rand.New(rand.NewSource(seed + 7000)), places: 3}
		inner := g.expr(g.place(), g.place(), 1)
		src := "SPEC (" + inner + ") ||| (" + inner + ") ENDSPEC"
		sp, err := lotos.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		d, err := core.Derive(sp, core.Options{})
		if err != nil {
			continue // generator occasionally violates a restriction under doubling
		}
		for _, fm := range faults {
			lim := lts.Limits{MaxObsDepth: 4, MaxStates: 200000}
			symSys, err := New(d.Entities, Config{Reductions: RedPOR.With(RedSymmetry), Limits: lim, Faults: fm})
			if err != nil {
				t.Fatal(err)
			}
			gr, err := symSys.Explore()
			if err != nil {
				t.Fatal(err)
			}
			fullSys, err := New(d.Entities, Config{Reductions: RedPOR | redExplicit, Limits: lim, Faults: fm})
			if err != nil {
				t.Fatal(err)
			}
			gf, err := fullSys.Explore()
			if err != nil {
				t.Fatal(err)
			}
			if symSys.sym == nil {
				t.Errorf("seed %d: symmetry not detected on doubled service\n%s", seed, src)
				continue
			}
			if gr.NumStates() > gf.NumStates() {
				t.Errorf("seed %d faults=%s: symmetry enlarged the product: %d vs %d\n%s",
					seed, fm, gr.NumStates(), gf.NumStates(), src)
			}
			trR := strings.Join(lts.WeakTraces(gr, 4), ";")
			trF := strings.Join(lts.WeakTraces(gf, 4), ";")
			if trR != trF {
				t.Errorf("seed %d faults=%s: symmetry changed the bounded trace set\n%s", seed, fm, src)
			}
			if !gr.Truncated && !gf.Truncated {
				if !equiv.WeakBisimilar(gr, gf) {
					t.Errorf("seed %d faults=%s: reduced and full products not weakly bisimilar\n%s", seed, fm, src)
				}
				if (len(gr.Deadlocks()) == 0) != (len(gf.Deadlocks()) == 0) {
					t.Errorf("seed %d faults=%s: deadlock presence differs (%d orbit vs %d concrete)\n%s",
						seed, fm, len(gr.Deadlocks()), len(gf.Deadlocks()), src)
				}
			}
		}
		checked++
	}
	if checked < 12 {
		t.Fatalf("only %d doubled services checked", checked)
	}
}

// TestSpillProductByteIdentical pins the compose-level spill contract: with
// a budget tiny enough to force spilling, the product graph — state
// numbering included — equals the parallel in-memory one, under reliable and
// faulty media alike.
func TestSpillProductByteIdentical(t *testing.T) {
	for _, fm := range []FaultModel{{}, {Loss: true, Duplication: true}} {
		lim := lts.Limits{MaxStates: 60000}
		spillSys, err := New(mustDerive(t, multiSrc).Entities, Config{
			Reductions: RedPOR.With(RedSpill), Limits: lim, SpillBudget: 4096, Faults: fm,
		})
		if err != nil {
			t.Fatal(err)
		}
		gs, err := spillSys.Explore()
		if err != nil {
			t.Fatal(err)
		}
		parSys, err := New(mustDerive(t, multiSrc).Entities, Config{
			Reductions: RedPOR | redExplicit, Limits: lim, Workers: 4, Faults: fm,
		})
		if err != nil {
			t.Fatal(err)
		}
		gp, err := parSys.Explore()
		if err != nil {
			t.Fatal(err)
		}
		if gs.NumStates() != gp.NumStates() || gs.NumTransitions() != gp.NumTransitions() {
			t.Fatalf("faults=%s: spilled product sizes differ: %d/%d vs %d/%d",
				fm, gs.NumStates(), gs.NumTransitions(), gp.NumStates(), gp.NumTransitions())
		}
		if !reflect.DeepEqual(gs.Keys, gp.Keys) {
			t.Errorf("faults=%s: spilled product state numbering differs from the in-memory index", fm)
		}
		ri := spillSys.ReductionInfo()
		if ri.SpillRuns == 0 {
			t.Errorf("faults=%s: 4KiB budget spilled no runs over %d states", fm, gs.NumStates())
		}
	}
}

func mustDerive(t testing.TB, src string) *core.Derivation {
	t.Helper()
	d, err := core.Derive(lotos.MustParse(src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestExploreStatsOnly checks the out-of-core counting mode against the full
// exploration's sizes.
func TestExploreStatsOnly(t *testing.T) {
	lim := lts.Limits{MaxStates: 300000}
	sys, err := New(mustDerive(t, multiSrc).Entities, Config{Reductions: RedAll | redExplicit, Limits: lim, SpillBudget: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.ExploreStatsOnly()
	if err != nil {
		t.Fatal(err)
	}
	full, gf := exploreSrc(t, multiSrc, Config{Reductions: RedAll | redExplicit, Limits: lim, SpillBudget: 1 << 14})
	_ = full
	if stats.States != int64(gf.NumStates()) || stats.Transitions != int64(gf.NumTransitions()) {
		t.Errorf("stats-only counted %d/%d, full exploration has %d/%d",
			stats.States, stats.Transitions, gf.NumStates(), gf.NumTransitions())
	}

	noSpill, err := New(mustDerive(t, multiSrc).Entities, Config{Limits: lim})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noSpill.ExploreStatsOnly(); err == nil {
		t.Error("ExploreStatsOnly without the spill reduction did not error")
	}
}

// TestVerifySymmetryFallbackMatchesUnreduced checks the witness discipline:
// a symmetry-reduced non-conformant verdict must be re-derived without
// symmetry, so the failure report equals an explicitly unreduced one field
// for field, with the fallback recorded.
func TestVerifySymmetryFallbackMatchesUnreduced(t *testing.T) {
	d := mustDerive(t, multiSrc)
	// A budget far below the product size forces a truncation-artifact
	// failure, which must trigger the unreduced re-verification.
	opts := VerifyOptions{ObsDepth: 4, MaxStates: 2000, Reductions: RedPOR.With(RedSymmetry)}
	rep, err := Verify(d.Service.Spec, d.Entities, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("expected a truncation-artifact failure at 2000 states")
	}
	if rep.Reduction == nil || rep.Reduction.Fallback == "" {
		t.Fatalf("non-conformant symmetric verdict recorded no fallback: %+v", rep.Reduction)
	}
	if strings.Contains(rep.Reduction.Enabled, "symmetry") {
		t.Errorf("fallback report still claims symmetry: %q", rep.Reduction.Enabled)
	}

	plain := opts
	plain.Reductions = RedPOR | redExplicit
	want, err := Verify(d.Service.Spec, d.Entities, plain)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() != want.Ok() || rep.TracesEqual != want.TracesEqual ||
		rep.ComposedDeadlocks != want.ComposedDeadlocks ||
		rep.ComposedGraph.NumStates() != want.ComposedGraph.NumStates() {
		t.Errorf("fallback report differs from an explicitly unreduced verification:\nfallback:\n%s\nunreduced:\n%s",
			rep.Summary(), want.Summary())
	}
	if !reflect.DeepEqual(witnessShape(rep.Witness), witnessShape(want.Witness)) {
		t.Errorf("fallback witness differs from the unreduced witness")
	}
}

// witnessShape projects a witness to comparable parts (the inner extraction
// context carries unexported pointers).
func witnessShape(w *Witness) any {
	if w == nil {
		return nil
	}
	return struct {
		Kind   string
		Steps  []WitnessStep
		Trace  []string
		Missin []string
	}{w.Kind, w.Steps, w.Trace, w.Missing}
}

// TestAmpleSetFaultAware pins the fault-awareness of the generalized ample
// set: under a faulty medium the receive shortcut must stay off (a lost or
// duplicated message invalidates the commutation argument), while the
// sole-internal shortcut — which touches no channel — keeps firing.
func TestAmpleSetFaultAware(t *testing.T) {
	lim := lts.Limits{MaxObsDepth: 4, MaxStates: 100000}
	rel, _ := exploreSrc(t, multiSrc, Config{Limits: lim})
	if rel.ReductionInfo().AmpleHits == 0 {
		t.Error("reliable exploration recorded no ample hits")
	}

	// Under faults, the exploration must agree with the unreduced one on
	// bounded weak traces (the sole-internal shortcut is the only ample
	// case allowed to fire).
	faulty := FaultModel{Loss: true, Duplication: true}
	_, gPOR := exploreSrc(t, pairSrc, Config{Limits: lim, Faults: faulty})
	_, gFull := exploreSrc(t, pairSrc, Config{Reductions: RedNone, Limits: lim, Faults: faulty})
	trR := strings.Join(lts.WeakTraces(gPOR, 4), ";")
	trF := strings.Join(lts.WeakTraces(gFull, 4), ";")
	if trR != trF {
		t.Error("faulty-medium POR changed the bounded trace set")
	}
	if (len(gPOR.Deadlocks()) == 0) != (len(gFull.Deadlocks()) == 0) {
		t.Errorf("faulty-medium POR changed deadlock presence: %d vs %d",
			len(gPOR.Deadlocks()), len(gFull.Deadlocks()))
	}
}
