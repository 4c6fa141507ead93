package lts

// The weak-trace engine. A weak trace is a sequence of rendered observable
// labels (Label.String); internal steps are invisible. Every trace question
// the system asks — listing traces, accepting one trace, comparing two
// graphs, finding the shortest divergent path — is a walk over the graph
// determinized on the fly: its nodes are τ-closed sets of states, its edges
// rendered labels. Subsets builds that automaton lazily and memoizes it, so
// each set is closed and expanded at most once per walk and nothing is
// computed for states no walk reaches.

import (
	"slices"
	"strings"
)

// Step is one edge of the determinized graph.
type Step struct {
	Label string // rendered observable label
	To    int32  // target node
}

// Subsets is the weak-trace automaton of one graph, determinized on
// demand. Node 0 is the τ-closure of the initial state. A node is a
// τ-closed set of states, interned by hash with an exact comparison on
// collision. Its successors are computed on first request — one pass over
// the members' edges, then one τ-closure per label, marked in an
// epoch-stamped visited array — and memoized. Not safe for concurrent use.
type Subsets struct {
	g *Graph
	// Node n's states are mem[off[n]:off[n+1]], sorted ascending.
	off, mem []int32
	// frontier[n]: node n holds an unexpanded state, so a missing successor
	// is not conclusive.
	frontier []bool
	// succ[n] is nil until node n is expanded, then its steps sorted by
	// label rendering.
	succ [][]Step
	// byHash maps a set hash to the nodes with that hash.
	byHash map[uint64][]int32

	// Scratch reused across expansions.
	mark  []uint32 // mark[s] == epoch: s is in the set being closed
	epoch uint32
	set   []int32
	edges []Step // a node's observable edges, To holding the target state
}

// NewSubsets starts the determinization of g.
func NewSubsets(g *Graph) *Subsets {
	s := &Subsets{
		g: g, byHash: map[uint64][]int32{}, mark: make([]uint32, g.NumStates()),
		off: append(make([]int32, 0, 16), 0), mem: make([]int32, 0, 64), frontier: make([]bool, 0, 16),
		succ: make([][]Step, 0, 16), set: make([]int32, 0, 16), edges: make([]Step, 0, 16),
	}
	s.epoch++
	if g.NumStates() > 0 {
		s.add(0)
	}
	s.close()
	return s
}

// Frontier reports whether node n holds an unexpanded frontier state.
func (s *Subsets) Frontier(n int32) bool { return s.frontier[n] }

// Succ returns node n's successors, one per observable label some member
// can perform, sorted by label rendering. The slice is shared.
func (s *Subsets) Succ(n int32) []Step {
	if s.succ[n] == nil {
		s.expand(n)
	}
	return s.succ[n]
}

// Next returns the successor of node n under the rendered label, or -1
// when no member can perform it.
func (s *Subsets) Next(n int32, label string) int32 {
	for _, st := range s.Succ(n) {
		if st.Label == label {
			return st.To
		}
	}
	return -1
}

// expand computes node n's successors in one pass over its members' edges.
func (s *Subsets) expand(n int32) {
	s.edges = s.edges[:0]
	for _, st := range s.mem[s.off[n]:s.off[n+1]] {
		es := s.g.Edges[st]
		for i := range es {
			if e := &es[i]; e.Label.Observable() {
				s.edges = append(s.edges, Step{e.Label.String(), int32(e.To)})
			}
		}
	}
	slices.SortFunc(s.edges, func(a, b Step) int { return strings.Compare(a.Label, b.Label) })
	steps := make([]Step, 0, 4)
	for i := 0; i < len(s.edges); {
		label := s.edges[i].Label
		s.epoch++
		s.set = s.set[:0]
		for ; i < len(s.edges) && s.edges[i].Label == label; i++ {
			s.add(s.edges[i].To)
		}
		steps = append(steps, Step{Label: label, To: s.close()})
	}
	s.succ[n] = steps
}

// add puts state st into the set being closed, unless already there.
func (s *Subsets) add(st int32) {
	if s.mark[st] != s.epoch {
		s.mark[st] = s.epoch
		s.set = append(s.set, st)
	}
}

// close extends s.set by every state reachable through internal steps and
// returns the node of the result, interning it on first sight.
func (s *Subsets) close() int32 {
	for i := 0; i < len(s.set); i++ {
		es := s.g.Edges[s.set[i]]
		for j := range es {
			if es[j].Label.Kind == LInternal {
				s.add(int32(es[j].To))
			}
		}
	}
	slices.Sort(s.set)
	h := uint64(14695981039346656037) // FNV-1a over the member ids
	for _, st := range s.set {
		h = (h ^ uint64(st)) * 1099511628211
	}
	for _, n := range s.byHash[h] {
		if slices.Equal(s.mem[s.off[n]:s.off[n+1]], s.set) {
			return n
		}
	}
	n := int32(len(s.succ))
	s.byHash[h] = append(s.byHash[h], n)
	s.mem = append(s.mem, s.set...)
	s.off = append(s.off, int32(len(s.mem)))
	s.frontier = append(s.frontier, slices.ContainsFunc(s.set, func(st int32) bool { return s.g.Frontier[int(st)] }))
	s.succ = append(s.succ, nil)
	return n
}
