package compose

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// deriveSrc derives the protocol of a service source.
func deriveSrc(t testing.TB, src string) *core.Derivation {
	t.Helper()
	d, err := core.Derive(lotos.MustParse(src), core.Options{})
	if err != nil {
		t.Fatalf("derive %q: %v", src, err)
	}
	return d
}

// cloneEntityMap deep-copies an entity map (exploration numbers trees in
// place, so every Verify call gets private trees).
func cloneEntityMap(m map[int]*lotos.Spec) map[int]*lotos.Spec {
	out := make(map[int]*lotos.Spec, len(m))
	for p, sp := range m {
		out[p] = lotos.CloneSpec(sp)
	}
	return out
}

// bothPaths verifies one derivation monolithically and compositionally with
// identical options and returns the two reports.
func bothPaths(t testing.TB, src string, opts VerifyOptions) (mono, comp *Report) {
	t.Helper()
	d := deriveSrc(t, src)
	var err error
	mono, err = Verify(lotos.CloneSpec(d.Service.Spec), cloneEntityMap(d.Entities), opts)
	if err != nil {
		t.Fatalf("monolithic verify: %v", err)
	}
	o := opts
	o.Compositional = true
	comp, err = Verify(lotos.CloneSpec(d.Service.Spec), cloneEntityMap(d.Entities), o)
	if err != nil {
		t.Fatalf("compositional verify: %v", err)
	}
	return mono, comp
}

// wantSameVerdict asserts that the two paths agree on every verdict field.
// When the monolithic product hit the exploration state cap its verdict is
// an artifact of the truncation and the quotient product may legitimately do
// better (that is the point of composing over quotients), so only the safe
// direction is checked there.
func wantSameVerdict(t *testing.T, src string, mono, comp *Report) {
	t.Helper()
	if mono.ComposedGraph.Truncated && mono.ComposedGraph.NumStates() >= lts.DefaultMaxStates {
		if mono.Ok() && !comp.Ok() {
			t.Errorf("%s: monolithic ok under the cap but compositional failed:\n%s", src, comp.Summary())
		}
		return
	}
	if mono.Ok() != comp.Ok() {
		t.Errorf("%s: Ok monolithic=%v compositional=%v\nmono:\n%s\ncomp:\n%s",
			src, mono.Ok(), comp.Ok(), mono.Summary(), comp.Summary())
	}
	if mono.TracesEqual != comp.TracesEqual {
		t.Errorf("%s: TracesEqual monolithic=%v compositional=%v", src, mono.TracesEqual, comp.TracesEqual)
	}
	if mono.Complete && comp.Complete && mono.WeakBisimilar != comp.WeakBisimilar {
		t.Errorf("%s: WeakBisimilar monolithic=%v compositional=%v", src, mono.WeakBisimilar, comp.WeakBisimilar)
	}
	if (mono.ComposedDeadlocks > 0) != (comp.ComposedDeadlocks > 0) {
		t.Errorf("%s: deadlocks monolithic=%d compositional=%d", src, mono.ComposedDeadlocks, comp.ComposedDeadlocks)
	}
	if comp.Compositional == nil {
		t.Errorf("%s: compositional report carries no CompositionalStats", src)
	}
}

var compositionalSources = []struct {
	name string
	src  string
	opts VerifyOptions
}{
	{"sequence", "SPEC a1; b2; c3; exit ENDSPEC", VerifyOptions{}},
	{"choice", "SPEC a1; b2; exit [] a1; c2; exit ENDSPEC", VerifyOptions{}},
	{"parallel", "SPEC a1; b2; exit ||| c3; d4; exit ENDSPEC", VerifyOptions{}},
	{"enable", "SPEC a1; b2; exit >> c1; exit >> d3; exit ENDSPEC", VerifyOptions{}},
	{"recursion", "SPEC A WHERE PROC A = a1; b2; A [] q1; b2; exit END ENDSPEC", VerifyOptions{}},
	{"disable-deviation", "SPEC a1; b2; c3; exit [> d3; exit ENDSPEC", VerifyOptions{ObsDepth: 6}},
	{"loss-deadlock", "SPEC a1; b2; exit ENDSPEC", VerifyOptions{Faults: FaultModel{Loss: true}}},
	{"dup-cap2", "SPEC a1; b2; a1; exit ENDSPEC", VerifyOptions{ChannelCap: 2, Faults: FaultModel{Duplication: true}}},
	{"reorder-cap2", "SPEC a1; b2; c1; b2; exit ENDSPEC", VerifyOptions{ChannelCap: 2, Faults: FaultModel{Reorder: true}}},
}

// TestCompositionalMatchesMonolithic: the quotient-before-compose path
// reaches the same verdict as the monolithic path on conformant and
// non-conformant services, with and without medium faults, serially and in
// parallel.
func TestCompositionalMatchesMonolithic(t *testing.T) {
	for _, tc := range compositionalSources {
		for _, workers := range []int{1, 4} {
			name := tc.name
			if workers > 1 {
				name += "-parallel"
			}
			t.Run(name, func(t *testing.T) {
				o := tc.opts
				o.Workers = workers
				mono, comp := bothPaths(t, tc.src, o)
				wantSameVerdict(t, tc.src, mono, comp)
			})
		}
	}
}

// TestCompositionalFailingFallsBack: a non-conformant verdict must come from
// the monolithic fallback — fallback reason recorded, witness byte-identical
// to the plain monolithic one.
func TestCompositionalFailingFallsBack(t *testing.T) {
	src := "SPEC a1; b2; exit ENDSPEC"
	opts := VerifyOptions{Faults: FaultModel{Loss: true}}
	mono, comp := bothPaths(t, src, opts)
	if comp.Ok() {
		t.Fatalf("expected loss to break the protocol:\n%s", comp.Summary())
	}
	if comp.Compositional == nil || comp.Compositional.Fallback == "" {
		t.Fatalf("failing compositional verdict did not record a fallback: %+v", comp.Compositional)
	}
	if mono.Witness == nil || comp.Witness == nil {
		t.Fatalf("missing witness: mono=%v comp=%v", mono.Witness, comp.Witness)
	}
	if got, want := comp.Witness.Summary(), mono.Witness.Summary(); got != want {
		t.Errorf("fallback witness differs from monolithic:\n--- monolithic\n%s\n--- compositional\n%s", want, got)
	}
	if comp.ComposedDeadlocks != mono.ComposedDeadlocks {
		t.Errorf("fallback deadlock count %d != monolithic %d", comp.ComposedDeadlocks, mono.ComposedDeadlocks)
	}
}

// TestCompositionalQuotientShrinks: on a finite-entity multi-place service
// (the multiinstance shape) the entity quotients are no larger than the
// exact entity LTSs, the quotient product is no larger than the monolithic
// product, and no fallback happens.
func TestCompositionalQuotientShrinks(t *testing.T) {
	// One instance of the multiinstance shape: four places, finite entities.
	// (The two-instance original is the benchmark's job — its monolithic
	// product runs to ~120k states, too slow for a unit test.)
	src := "SPEC (a1; (b2; exit ||| c3; exit)) >> g4; exit ENDSPEC"
	mono, comp := bothPaths(t, src, VerifyOptions{})
	wantSameVerdict(t, src, mono, comp)
	st := comp.Compositional
	if st.Fallback != "" {
		t.Fatalf("unexpected fallback: %s", st.Fallback)
	}
	if st.QuotientStatesTotal() > st.ExactStatesTotal() {
		t.Errorf("quotient grew the entities: exact=%d quotient=%d",
			st.ExactStatesTotal(), st.QuotientStatesTotal())
	}
	if st.ProductStates > mono.ComposedGraph.NumStates() {
		t.Errorf("quotient product (%d states) larger than monolithic product (%d states)",
			st.ProductStates, mono.ComposedGraph.NumStates())
	}
	t.Logf("entities exact=%d quotient=%d; product mono=%d comp=%d",
		st.ExactStatesTotal(), st.QuotientStatesTotal(),
		mono.ComposedGraph.NumStates(), st.ProductStates)
}

// TestCompositionalRecursiveEntityFallsBack: recursive services derive
// entities whose unfoldings carry fresh occurrence numbers — the entity LTS
// is unbounded, so the compositional path must fall back and agree with the
// monolithic verdict exactly.
func TestCompositionalRecursiveEntityFallsBack(t *testing.T) {
	src := "SPEC A WHERE PROC A = a1; b2; c1; A [] q1; b2; exit END ENDSPEC"
	mono, comp := bothPaths(t, src, VerifyOptions{})
	wantSameVerdict(t, src, mono, comp)
	if comp.Compositional.Fallback == "" {
		t.Error("expected an exploration-cap fallback for the recursive entity")
	}
	if mono.Complete != comp.Complete {
		t.Errorf("Complete mono=%v comp=%v", mono.Complete, comp.Complete)
	}
}

// TestCompositionalMatrixReusesEntities: a compositional fault matrix builds
// each entity's quotient once; every later cell reuses it.
func TestCompositionalMatrixReusesEntities(t *testing.T) {
	d := deriveSrc(t, "SPEC a1; b2; c1; exit ENDSPEC")
	models := []FaultModel{Reliable, {Loss: true}, {Duplication: true}, {Reorder: true}}
	cells, err := VerifyMatrix(lotos.CloneSpec(d.Service.Spec), cloneEntityMap(d.Entities), models,
		VerifyOptions{Compositional: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(models) {
		t.Fatalf("got %d cells, want %d", len(cells), len(models))
	}
	for i, c := range cells {
		st := c.Report.Compositional
		if st == nil {
			t.Fatalf("cell %d (%s) has no compositional stats", i, c.Faults)
		}
		if i == 0 && st.Reused != 0 {
			t.Errorf("first cell reused %d entities, want 0", st.Reused)
		}
		if i > 0 && st.Reused != len(st.Entities) {
			t.Errorf("cell %d (%s) reused %d/%d entities, want all", i, c.Faults, st.Reused, len(st.Entities))
		}
	}

	// Each cell must match its monolithic counterpart.
	monoCells, err := VerifyMatrix(lotos.CloneSpec(d.Service.Spec), cloneEntityMap(d.Entities), models, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		wantSameVerdict(t, fmt.Sprintf("cell %s", models[i]), monoCells[i].Report, cells[i].Report)
	}
}

// TestMemoEntityProvider: hits are flagged Reused with zero build time and
// share the underlying quotient graph.
func TestMemoEntityProvider(t *testing.T) {
	d := deriveSrc(t, "SPEC a1; b2; exit ENDSPEC")
	calls := 0
	p := MemoEntityProvider(func(place int, sp *lotos.Spec, maxStates int) (*EntityLTS, error) {
		calls++
		return BuildEntityLTS(place, sp, maxStates)
	})
	places := []int{1, 2}
	for _, pl := range places {
		el, err := p(pl, d.Entities[pl], 0)
		if err != nil {
			t.Fatal(err)
		}
		if el.Reused {
			t.Errorf("place %d: first build flagged Reused", pl)
		}
	}
	if calls != 2 {
		t.Fatalf("expected 2 builds, got %d", calls)
	}
	for _, pl := range places {
		el, err := p(pl, d.Entities[pl], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !el.Reused || el.BuildNanos != 0 {
			t.Errorf("place %d: hit not flagged (reused=%v buildNanos=%d)", pl, el.Reused, el.BuildNanos)
		}
	}
	if calls != 2 {
		t.Errorf("memo missed: %d builds after hits", calls)
	}
	// Distinct maxStates are distinct artifacts.
	if _, err := p(1, d.Entities[1], 12345); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("maxStates not part of the memo key: %d builds", calls)
	}
}

// TestBuildEntityLTSTruncation: an entity over the cap yields a Truncated
// artifact with a nil quotient, and the compositional path falls back.
func TestBuildEntityLTSTruncation(t *testing.T) {
	d := deriveSrc(t, "SPEC A WHERE PROC A = a1; b2; A [] q1; b2; exit END ENDSPEC")
	el, err := BuildEntityLTS(1, d.Entities[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !el.Truncated || el.Quotient != nil {
		t.Fatalf("expected truncated artifact with nil quotient, got %+v", el)
	}

	mono, err := Verify(lotos.CloneSpec(d.Service.Spec), cloneEntityMap(d.Entities), VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Verify(lotos.CloneSpec(d.Service.Spec), cloneEntityMap(d.Entities), VerifyOptions{
		Compositional: true,
		EntityProvider: func(place int, sp *lotos.Spec, maxStates int) (*EntityLTS, error) {
			return BuildEntityLTS(place, sp, 2)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Compositional == nil || comp.Compositional.Fallback == "" {
		t.Fatalf("truncated entity did not fall back: %+v", comp.Compositional)
	}
	if mono.Ok() != comp.Ok() {
		t.Errorf("fallback verdict %v != monolithic %v", comp.Ok(), mono.Ok())
	}
}
