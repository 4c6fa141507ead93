// Package equiv implements the behavioural equivalences the paper's
// correctness argument (Section 5) is stated in: weak bisimulation
// (observational equivalence), the root condition that strengthens it to
// observation congruence, strong bisimulation (used to validate the
// algebraic laws of Annex A), and bounded weak-trace equivalence as the
// fallback for state spaces that cannot be explored to closure.
//
// All checks operate on the finite (possibly truncated) transition graphs
// produced by internal/lts. Bisimulation runs on the integer engine of
// engine.go (interned labels, τ-SCC saturation, hashed partition
// refinement); the trace checks and counterexample searches walk the
// determinized graphs of lts.Subsets. The original map/string checkers are
// retained in the test-only package equivref as the executable
// specification the differential tests compare against.
package equiv

import (
	"repro/internal/lts"
)

// epsKey is the pseudo-label used for weak internal moves in saturated
// graphs. It cannot collide with lts label keys ("\x01i"/"\x01d"/gates).
const epsKey = "\x02eps"

// WeakBisimilar reports whether the initial states of g1 and g2 are weakly
// bisimilar (observationally equivalent, "≈" without the congruence root
// condition). Successful termination δ is treated as observable, as in
// LOTOS. The graphs must be fully explored; calling this on truncated
// graphs gives an answer for the truncated systems only.
func WeakBisimilar(g1, g2 *lts.Graph) bool {
	ok, _ := WeakBisimilarStats(g1, g2)
	return ok
}

// WeakBisimilarStats is WeakBisimilar plus the engine's work counters.
func WeakBisimilarStats(g1, g2 *lts.Graph) (bool, Stats) {
	e := newWeakEngine(g1, g2)
	return e.stateBlock(0) == e.stateBlock(g1.NumStates()), e.stats
}

// ObservationCongruent reports whether the initial states of g1 and g2 are
// observation congruent ("≈" of the paper, written B1 = B2 in Annex A):
// weakly bisimilar AND every initial internal move of one side is matched by
// at least one internal move (i then i*) of the other into a weakly
// bisimilar state. The root condition distinguishes e.g. "B" from "i; B".
func ObservationCongruent(g1, g2 *lts.Graph) bool {
	e := newWeakEngine(g1, g2)
	off := g1.NumStates()
	if e.stateBlock(0) != e.stateBlock(off) {
		return false
	}
	return e.rootMatched(g1, 0, g2, off) && e.rootMatched(g2, off, g1, 0)
}

// rootMatched checks that every initial i-move of a (at combined offset
// aOff) is matched in b by a strict weak i-move (at least one internal
// step) into the same equivalence class. The ε-closures needed are read off
// the engine's τ-SCC condensation.
func (e *weakEngine) rootMatched(a *lts.Graph, aOff int, b *lts.Graph, bOff int) bool {
	var bBlocks map[int32]struct{}
	for _, ed := range a.Out(0) {
		if a.Table.Kind(ed.Label) != lts.LInternal {
			continue
		}
		if bBlocks == nil {
			// Classes reachable from b's root by one i step then i*.
			bBlocks = map[int32]struct{}{}
			for _, be := range b.Out(0) {
				if b.Table.Kind(be.Label) != lts.LInternal {
					continue
				}
				for _, d := range e.reach[e.sccOf[bOff+int(be.To)]] {
					bBlocks[e.block[d]] = struct{}{}
				}
			}
		}
		if _, ok := bBlocks[e.stateBlock(aOff+int(ed.To))]; !ok {
			return false
		}
	}
	return true
}

// StrongBisimilar reports whether the initial states of g1 and g2 are
// strongly bisimilar (every action, including i, matched one-for-one). It
// runs the hashed refinement directly over the combined state-level CSR —
// no saturation and no τ-condensation, since i is not absorbed.
func StrongBisimilar(g1, g2 *lts.Graph) bool {
	off32, labs, to := flatten(lts.NewLabelTable(), g1, g2)
	n := len(off32) - 1
	off := make([]int, n+1)
	pairs := make([]uint64, len(to))
	for s := 0; s < n; s++ {
		off[s+1] = int(off32[s+1])
	}
	for i := range to {
		pairs[i] = packPair(labs[i], to[i])
	}
	block, _, _ := refinePacked(n, off, pairs, 0)
	return block[0] == block[g1.NumStates()]
}

// WeakTraceEquivalent reports whether g1 and g2 have the same weak traces up
// to the given length. It is sound for truncated graphs only as a bounded
// check: traces longer than the exploration depth are not compared. The
// trace sets are equal exactly when neither side has a trace the other
// lacks, so this is TraceDiff asked for one example per side.
func WeakTraceEquivalent(g1, g2 *lts.Graph, maxLen int) bool {
	only1, only2 := TraceDiff(g1, g2, maxLen, 1)
	return only1 == nil && only2 == nil
}

// TraceDiff returns example traces present in exactly one of the two
// graphs, up to maxLen and at most limit entries per side, for diagnostics.
// Each side lists its lexicographically smallest such traces, in order.
func TraceDiff(g1, g2 *lts.Graph, maxLen, limit int) (onlyG1, onlyG2 []string) {
	a, b := lts.NewSubsets(g1), lts.NewSubsets(g2)
	return onlyIn(a, b, maxLen, limit), onlyIn(b, a, maxLen, limit)
}

// onlyIn lists, in sorted order, the first limit traces of a, up to maxLen
// labels, that b lacks. Such a trace leaves b at its first label b cannot
// follow, and every extension in a is then missing from b too. The walk
// visits labels in rendering order, so traces come out sorted. It memoizes
// the (node pair, labels left) states below which no trace is missing, so
// each common prefix without a divergence below is searched once.
func onlyIn(a, b *lts.Subsets, maxLen, limit int) []string {
	var out []string
	exhausted := map[[3]int32]bool{}
	// walk emits the missing traces that extend trace, which leads to node x
	// of a and to node y of b (-1 once b has left it), and reports whether
	// it emitted any.
	var walk func(x, y int32, trace string, left int) bool
	walk = func(x, y int32, trace string, left int) bool {
		if y < 0 {
			out = append(out, trace)
		}
		k := [3]int32{x, y, int32(left)}
		if left <= 0 || exhausted[k] {
			return y < 0
		}
		found := y < 0
		for _, st := range a.Succ(x) {
			if len(out) >= limit {
				return true
			}
			ny := int32(-1)
			if y >= 0 {
				ny = b.Next(y, st.Label)
			}
			found = walk(st.To, ny, lts.AppendTrace(trace, st.Label), left-1) || found
		}
		exhausted[k] = !found
		return found
	}
	if limit > 0 {
		walk(0, 0, "", maxLen)
	}
	return out
}
