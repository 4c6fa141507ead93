package equiv

import (
	"slices"

	"repro/internal/lts"
)

// This file finds concrete counterexample paths for failed trace-equivalence
// checks: where TraceDiff reports *which* weak traces separate two graphs,
// DivergentPath reports *how to get there* — the shortest transition path
// (entity moves included, internal steps and all) that exhibits a trace one
// side has and the other does not. The searches run a determinized subset
// construction of the reference graph alongside a parent-pointer BFS of the
// subject graph, so the returned path is minimal in transition count over
// the explored state space.

// witnessNode is one node of the subset-product BFS: a subject state paired
// with the determinized reference node (the τ-closed set of reference
// states) reached by the same weak trace.
type witnessNode struct {
	state  int   // subject graph state
	ref    int32 // reference lts.Subsets node
	obs    int   // observable steps taken so far
	parent int   // index of the parent node (-1 for the root)
	edge   lts.Edge
}

// DivergentPath returns a shortest transition path (by edge count) in the
// subject graph whose weak observable trace is NOT a weak trace of the
// reference graph. The final edge of the path is the divergent observable:
// its trace prefix is a reference trace, the full trace is not.
//
// maxObs bounds the number of observable steps considered (0 = unbounded —
// sound only when both graphs are explored to closure). Divergence is never
// reported through an unexpanded frontier state of the reference graph,
// whose successors are unknown; such branches are conservatively treated as
// matching.
//
// The second result is false when no divergent path exists within the bound.
func DivergentPath(subject, reference *lts.Graph, maxObs int) ([]lts.PathStep, bool) {
	if subject.NumStates() == 0 || reference.NumStates() == 0 {
		return nil, false
	}
	ref := lts.NewSubsets(reference)
	var nodes []witnessNode
	visited := map[[3]int]bool{}
	push := func(n witnessNode) {
		// The observable count participates only under a bound: with
		// maxObs = 0 the judgement of a node is independent of how many
		// observables led to it, and folding obs into the key would blow
		// the search up for cyclic graphs.
		k := [3]int{n.state, int(n.ref), n.obs}
		if maxObs <= 0 {
			k[2] = 0
		}
		if !visited[k] {
			visited[k] = true
			nodes = append(nodes, n)
		}
	}
	push(witnessNode{parent: -1})

	for head := 0; head < len(nodes); head++ {
		cur := nodes[head]
		for _, e := range subject.Out(cur.state) {
			if !subject.Table.Observable(e.Label) {
				// Internal subject move: the reference node is unchanged.
				push(witnessNode{state: int(e.To), ref: cur.ref, obs: cur.obs, parent: head, edge: e})
				continue
			}
			if maxObs > 0 && cur.obs >= maxObs {
				continue // beyond the sound comparison bound
			}
			// Determinized reference step under the same observable label.
			next := ref.Next(cur.ref, subject.Table.Name(e.Label))
			if next < 0 {
				if ref.Frontier(cur.ref) {
					continue // unknown successors: cannot judge soundly
				}
				// Divergence: the reference cannot match this observable.
				return append(unwindNodes(subject, nodes, head), subject.Step(cur.state, e)), true
			}
			push(witnessNode{state: int(e.To), ref: next, obs: cur.obs + 1, parent: head, edge: e})
		}
	}
	return nil, false
}

// TracePrefixPath returns a shortest subject-graph path realizing the
// longest realizable prefix of the given observable trace (labels rendered
// as by Label.String). The second result is the number of trace labels the
// path realizes. For a trace the subject cannot perform in full, the path
// leads to a state after which the next label is not weakly reachable
// anywhere in the explored graph (the BFS exhausts every state reaching the
// maximal prefix before giving up on extending it).
func TracePrefixPath(subject *lts.Graph, trace []string) ([]lts.PathStep, int) {
	if subject.NumStates() == 0 {
		return nil, 0
	}
	// Nodes pair a subject state with the number of trace labels realized
	// (in obs); best is the first node realizing the most.
	nodes := []witnessNode{{parent: -1}}
	visited := map[[2]int]bool{{0, 0}: true}
	best := 0
	for head := 0; head < len(nodes); head++ {
		cur := nodes[head]
		if cur.obs > nodes[best].obs {
			best = head
			if cur.obs == len(trace) {
				break
			}
		}
		for _, e := range subject.Out(cur.state) {
			pos := cur.obs
			if subject.Table.Observable(e.Label) {
				if pos >= len(trace) || subject.Table.Name(e.Label) != trace[pos] {
					continue
				}
				pos++
			}
			if to := int(e.To); !visited[[2]int{to, pos}] {
				visited[[2]int{to, pos}] = true
				nodes = append(nodes, witnessNode{state: to, obs: pos, parent: head, edge: e})
			}
		}
	}
	return unwindNodes(subject, nodes, best), nodes[best].obs
}

// ShortestDivergentTrace returns the observable projection of
// DivergentPath(subject, reference): the shortest-path divergent weak trace,
// rendered label by label.
func ShortestDivergentTrace(subject, reference *lts.Graph, maxObs int) ([]string, bool) {
	path, ok := DivergentPath(subject, reference, maxObs)
	if !ok {
		return nil, false
	}
	return lts.ObservableTrace(path), true
}

// unwindNodes reconstructs the path of subject from the root to
// nodes[head].
func unwindNodes(subject *lts.Graph, nodes []witnessNode, head int) []lts.PathStep {
	var rev []lts.PathStep
	for at := head; nodes[at].parent >= 0; at = nodes[at].parent {
		rev = append(rev, subject.Step(nodes[nodes[at].parent].state, nodes[at].edge))
	}
	slices.Reverse(rev)
	return rev
}
