package equiv

import (
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// TestQuotientEmptyKeyState regresses the "unassigned" sentinel: a state
// whose canonical key is legitimately empty must still be adopted as its
// class representative (the old q.Keys[from] == "" check made every later
// state of the class overwrite it).
func TestQuotientEmptyKeyState(t *testing.T) {
	// Hand-built two-state graph: 0 --a--> 1, both keys empty, distinct
	// classes (state 1 is terminal).
	ev := lotos.ServiceEvent("a", 1)
	g := wGraph(2, map[int][]lEdge{0: {{Label: lts.EventLabel(ev), To: 1}}})
	g.Depth = []int{0, 1}
	g.ObsDepth = []int{0, 1}
	q := QuotientWeak(g)
	if q.NumStates() != 2 {
		t.Fatalf("quotient states = %d, want 2", q.NumStates())
	}
	if q.Keys[0] != "" || q.Keys[1] != "" {
		t.Fatalf("quotient keys = %q", q.Keys)
	}
	if len(q.Out(0)) != 1 || q.Out(0)[0].To != 1 {
		t.Fatalf("quotient edges of state 0 = %v", q.Out(0))
	}
	if !WeakBisimilar(g, q) {
		t.Fatal("quotient not bisimilar to original")
	}
}

func TestTauCycleCollapsesToOneClass(t *testing.T) {
	// A hand-built three-state τ-cycle (recursive specs explore to fresh
	// occurrence numbers, so cycles only arise through key canonicalization
	// — e.g. in composed product graphs). Every state shares one τ-SCC and
	// one class, and the cycle is weakly bisimilar to stop (no observable
	// behaviour, no termination).
	tau := lts.Internal()
	g := wGraph(3, map[int][]lEdge{
		0: {{Label: tau, To: 1}},
		1: {{Label: tau, To: 2}},
		2: {{Label: tau, To: 0}},
	})
	g.Keys = []string{"s0", "s1", "s2"}
	g.Depth = []int{0, 1, 2}
	if n := NumClassesWeak(g); n != 1 {
		t.Fatalf("τ-cycle classes = %d, want 1", n)
	}
	if !WeakBisimilar(g, graphOf(t, "stop")) {
		t.Fatal("τ-divergent loop not weakly bisimilar to stop")
	}
}

func TestWeakBisimilarStatsCounters(t *testing.T) {
	g1 := graphOf(t, "a1; i; b2; exit")
	g2 := graphOf(t, "a1; b2; exit")
	ok, st := WeakBisimilarStats(g1, g2)
	if !ok {
		t.Fatal("expected weakly bisimilar")
	}
	if st.States != g1.NumStates()+g2.NumStates() {
		t.Errorf("stats states = %d, want %d", st.States, g1.NumStates()+g2.NumStates())
	}
	if st.TauSCCs <= 0 || st.TauSCCs > st.States {
		t.Errorf("stats τ-SCCs = %d out of range", st.TauSCCs)
	}
	if st.SaturationEdges < st.TauSCCs {
		t.Errorf("stats saturation edges = %d < SCC count %d (ε rows missing)", st.SaturationEdges, st.TauSCCs)
	}
	if st.RefinementRounds < 1 {
		t.Errorf("stats rounds = %d", st.RefinementRounds)
	}
	if st.Blocks < 1 || st.Blocks > st.TauSCCs {
		t.Errorf("stats blocks = %d out of range", st.Blocks)
	}
	if st.SaturateNanos < 0 || st.RefineNanos < 0 {
		t.Errorf("negative phase times: %+v", st)
	}
}

// TestRefineParallelMatchesSerial forces both code paths of the per-round
// signature computation over the same relation and checks identical
// partitions (the parallel path must be deterministic).
func TestRefineParallelMatchesSerial(t *testing.T) {
	// A chain of 2*refineParallelMin states with alternating labels: big
	// enough to cross the parallel threshold, fully distinguishable, so the
	// refinement runs many rounds.
	n := 2 * refineParallelMin
	off := make([]int, n+1)
	pairs := make([]uint64, 0, n)
	for s := 0; s < n; s++ {
		if s+1 < n {
			pairs = append(pairs, packPair(lts.LabelID(s%3), int32(s+1)))
		}
		off[s+1] = len(pairs)
	}
	serialBlock, serialBlocks, serialRounds := refinePacked(n, off, pairs, 1)
	parBlock, parBlocks, parRounds := refinePacked(n, off, pairs, 8)
	if serialBlocks != parBlocks || serialRounds != parRounds {
		t.Fatalf("serial (%d blocks, %d rounds) != parallel (%d blocks, %d rounds)",
			serialBlocks, serialRounds, parBlocks, parRounds)
	}
	for i := range serialBlock {
		if serialBlock[i] != parBlock[i] {
			t.Fatalf("block[%d]: serial %d != parallel %d", i, serialBlock[i], parBlock[i])
		}
	}
	if serialBlocks != n {
		t.Fatalf("chain of %d distinguishable states refined to %d blocks", n, serialBlocks)
	}
}

func TestLabelTableInterning(t *testing.T) {
	tab := lts.NewLabelTable()
	a := tab.Intern(lts.EventLabel(lotos.ServiceEvent("a", 1)))
	b := tab.Intern(lts.EventLabel(lotos.ServiceEvent("b", 2)))
	i1 := tab.Intern(lts.Internal())
	d := tab.Intern(lts.Delta())
	if a == b || a == i1 || b == d || i1 == d {
		t.Fatalf("distinct labels share ids: a=%d b=%d i=%d d=%d", a, b, i1, d)
	}
	if got := tab.Intern(lts.EventLabel(lotos.ServiceEvent("a", 1))); got != a {
		t.Fatalf("re-interning a1 gave %d, want %d", got, a)
	}
	if !tab.Observable(a) || !tab.Observable(d) || tab.Observable(i1) {
		t.Fatal("observability lost through interning")
	}
	if tab.Len() != 4 {
		t.Fatalf("table len = %d, want 4", tab.Len())
	}
}
