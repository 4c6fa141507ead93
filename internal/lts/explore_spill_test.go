package lts

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

// spillTestSource builds a deterministic synthetic graph large enough to
// force several run spills under a tiny budget: n states in a ring with
// chord edges, a τ self-avoiding chain, and a few terminal (deadlock)
// states hanging off the chords.
func spillTestSource(n int) *fakeSource {
	f := &fakeSource{edges: map[string][]GenTransition{}}
	name := func(i int) string { return "state-" + strconv.Itoa(i) }
	for i := 0; i < n; i++ {
		var out []GenTransition
		out = append(out, obs(name((i+1)%n)))
		if i%3 == 0 {
			out = append(out, tau(name((i*7+13)%n)))
		}
		if i%17 == 0 {
			// Terminal chord: a state with no outgoing transitions.
			out = append(out, obs("dead-"+strconv.Itoa(i)))
		}
		f.edges[name(i)] = out
	}
	return f
}

// assertGraphsIdentical requires byte-identical state numbering, keys and
// edge tables — the spilling index's contract is exact agreement with the
// in-memory one, not just bisimilarity.
func assertGraphsIdentical(t *testing.T, a, b *Graph, what string) {
	t.Helper()
	if a.NumStates() != b.NumStates() || a.NumTransitions() != b.NumTransitions() {
		t.Fatalf("%s: sizes differ: %d/%d vs %d/%d states/transitions",
			what, a.NumStates(), a.NumTransitions(), b.NumStates(), b.NumTransitions())
	}
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		t.Fatalf("%s: state numbering differs", what)
	}
	if !reflect.DeepEqual(a.Edges, b.Edges) {
		t.Fatalf("%s: edge tables differ", what)
	}
	if a.Truncated != b.Truncated {
		t.Fatalf("%s: truncation flags differ: %v vs %v", what, a.Truncated, b.Truncated)
	}
	if len(a.Deadlocks()) != len(b.Deadlocks()) {
		t.Fatalf("%s: deadlock counts differ: %d vs %d", what, len(a.Deadlocks()), len(b.Deadlocks()))
	}
}

// exploreSpilled runs the explorer over the spilling index.
func exploreSpilled(t *testing.T, src StateSource, lim Limits, workers int, budget int64) (*Graph, *SpillStats) {
	t.Helper()
	g, stats, err := ExploreSource(src, "state-0", "state-0", lim, workers, &SpillConfig{Budget: budget, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return g, stats
}

// TestSpillMatchesInMemoryExplorers is the determinism contract: under a
// budget tiny enough to force many spilled runs, the spilling index must
// yield exactly the graph of the in-memory index at every worker count,
// and of the reference explorer (without depth bounds no state is ever
// re-queued, so FIFO and level-synchronous numbering coincide).
func TestSpillMatchesInMemoryExplorers(t *testing.T) {
	src := spillTestSource(900)
	lim := Limits{MaxStates: 5000}
	ref, err := refExplore(src, "state-0", "state-0", lim)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		mem, _, err := ExploreSource(src, "state-0", "state-0", lim, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertGraphsIdentical(t, ref, mem, fmt.Sprintf("in-memory (workers=%d) vs ref", workers))
		spilled, stats := exploreSpilled(t, src, lim, workers, 2048)
		assertGraphsIdentical(t, ref, spilled, fmt.Sprintf("spill (workers=%d) vs ref", workers))
		if stats.Runs == 0 {
			t.Error("2KiB budget over ~950 states spilled no runs")
		}
		// The index spills when an insert crosses the budget, so the peak
		// may overshoot by at most one entry (key bytes + bookkeeping
		// overhead).
		if slack := int64(2048 + spillEntryOverhead + 64); stats.PeakMemBytes > slack {
			t.Errorf("peak index memory %d exceeds the 2048-byte budget beyond one entry (%d)", stats.PeakMemBytes, slack)
		}
		if stats.States != int64(ref.NumStates()) || stats.Transitions != int64(ref.NumTransitions()) {
			t.Errorf("stats (%d states, %d transitions) disagree with the graph (%d, %d)",
				stats.States, stats.Transitions, ref.NumStates(), ref.NumTransitions())
		}
		if stats.Truncated {
			t.Error("uncapped exploration reported as truncated by the cap")
		}
	}
}

// TestSpillLargeBudgetNeverSpills pins the fast path: with the default
// budget nothing is written to disk and the graph is still identical.
func TestSpillLargeBudgetNeverSpills(t *testing.T) {
	src := spillTestSource(300)
	lim := Limits{MaxStates: 5000}
	mem, _, err := ExploreSource(src, "state-0", "state-0", lim, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	spilled, stats := exploreSpilled(t, src, lim, 2, 0)
	assertGraphsIdentical(t, mem, spilled, "spill (no-spill path) vs in-memory")
	if stats.Runs != 0 || stats.SpilledBytes != 0 {
		t.Errorf("default budget spilled %d runs (%d bytes)", stats.Runs, stats.SpilledBytes)
	}
}

// TestSpillTruncationMatchesParallel pins that MaxStates truncation cuts
// the same prefix under the reference explorer, the in-memory index at
// every worker count and the spilling index — the differential suites
// compare truncated graphs too.
func TestSpillTruncationMatchesParallel(t *testing.T) {
	src := spillTestSource(900)
	lim := Limits{MaxStates: 200}
	ref, err := refExplore(src, "state-0", "state-0", lim)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Truncated {
		t.Fatal("200-state cap over a 900-state graph did not truncate")
	}
	for _, workers := range []int{1, 4} {
		mem, _, err := ExploreSource(src, "state-0", "state-0", lim, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertGraphsIdentical(t, ref, mem, fmt.Sprintf("truncated in-memory (workers=%d) vs ref", workers))
		spilled, stats := exploreSpilled(t, src, lim, workers, 1024)
		if !stats.Truncated {
			t.Errorf("workers=%d: capped spill exploration not reported as truncated by the cap", workers)
		}
		assertGraphsIdentical(t, ref, spilled, fmt.Sprintf("truncated spill (workers=%d) vs ref", workers))
	}
}

// TestSpillDepthBoundIsNotCapTruncation pins SpillStats.Truncated to the
// state cap: an exploration cut only by the observable-depth bound is a
// truncated graph, but the cap refused nothing.
func TestSpillDepthBoundIsNotCapTruncation(t *testing.T) {
	g, stats := exploreSpilled(t, spillTestSource(400), Limits{MaxObsDepth: 3}, 1, 1024)
	if !g.Truncated {
		t.Error("obs-depth-bounded exploration of a 400-state ring is not Graph.Truncated")
	}
	if stats.Truncated {
		t.Error("SpillStats.Truncated set although no state cap was hit")
	}
}

// TestSpillStatsOnly checks the counting mode: same state and transition
// totals as a full exploration, no graph retained, and depth limits
// rejected (they need retained edges).
func TestSpillStatsOnly(t *testing.T) {
	src := spillTestSource(400)
	lim := Limits{MaxStates: 5000}
	full, fullStats := exploreSpilled(t, src, lim, 1, 2048)
	g, stats, err := ExploreSource(src, "state-0", "state-0", lim, 1, &SpillConfig{Budget: 2048, Dir: t.TempDir(), StatsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if g != nil {
		t.Error("stats-only exploration returned a graph")
	}
	if stats.States != fullStats.States || stats.Transitions != fullStats.Transitions {
		t.Errorf("stats-only counts (%d, %d) differ from full exploration (%d, %d)",
			stats.States, stats.Transitions, fullStats.States, fullStats.Transitions)
	}
	if full.NumStates() != int(stats.States) {
		t.Errorf("full graph has %d states, stats-only counted %d", full.NumStates(), stats.States)
	}

	if _, _, err := ExploreSource(src, "state-0", "state-0", Limits{MaxObsDepth: 3}, 1, &SpillConfig{StatsOnly: true}); err == nil {
		t.Error("stats-only with a depth limit did not error")
	}
}

// TestSpillDerivationErrorPropagates checks that a failing derivation
// surfaces as an error (with non-nil stats) rather than a partial graph.
func TestSpillDerivationErrorPropagates(t *testing.T) {
	src := spillTestSource(100)
	src.failOn = map[string]bool{"state-50": true}
	g, stats, err := ExploreSource(src, "state-0", "state-0", Limits{MaxStates: 5000}, 1, &SpillConfig{Budget: 1024, Dir: t.TempDir()})
	if err == nil {
		t.Fatal("injected derivation failure did not surface")
	}
	if g != nil {
		t.Error("failed exploration returned a graph")
	}
	if stats == nil {
		t.Error("failed exploration returned nil stats")
	}
}
