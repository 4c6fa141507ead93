package lts

// The weak-trace engine. A weak trace is a sequence of rendered observable
// labels (Label.String); internal steps are invisible. Every trace question
// the system asks — listing traces, accepting one trace, comparing two
// graphs, finding the shortest divergent path, monitoring a service — is a
// walk over a transition system determinized on the fly: its nodes are
// τ-closed sets of states, its edges rendered labels. Subsets builds that
// automaton lazily and memoizes it, so each set is closed and expanded at
// most once and nothing is computed for states no walk reaches. It groups
// edges by label id — the ids of one rendering together (LabelTable.Rendered)
// — and renders a label only when it hands a step out.
//
// Subsets takes its states' edges from one of two places. Over a finished
// Graph (NewSubsets) it reads them from the graph, whose truncation frontier
// then makes a missing successor inconclusive. Over a specification's
// on-demand derivation (a Monitor, monitor.go) it derives each state the
// first time a closure reaches it, so every node is exact and no depth
// bound is needed.

import (
	"slices"
	"strings"
)

// Step is one edge of the determinized graph.
type Step struct {
	Label string // rendered observable label
	To    int32  // target node
}

// Subsets is the weak-trace automaton of one transition system, determinized
// on demand. Node 0 is the τ-closure of the initial state. A node is a
// τ-closed set of states, interned by hash with an exact comparison on
// collision. Its successors are computed on first request — one pass over
// the members' edges, then one τ-closure per label, marked in an
// epoch-stamped visited array — and memoized. Not safe for concurrent use.
type Subsets struct {
	g *Graph
	// src, when non-nil, derives g's states on demand: g holds every state
	// reached so far, and a state's edges are valid once src derived it.
	src *lazyStates
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
	edges []Edge // a node's observable edges, labelled by Rendered id
}

// NewSubsets starts the determinization of g.
func NewSubsets(g *Graph) *Subsets {
	s := newSubsets(g, nil)
	s.start() // reading a finished graph cannot fail
	return s
}

// newSubsets allocates the automaton of g without its initial node.
func newSubsets(g *Graph, src *lazyStates) *Subsets {
	return &Subsets{
		g: g, src: src, byHash: map[uint64][]int32{}, mark: make([]uint32, g.NumStates()),
		off: append(make([]int32, 0, 16), 0), mem: make([]int32, 0, 64), frontier: make([]bool, 0, 16),
		succ: make([][]Step, 0, 16), set: make([]int32, 0, 16), edges: make([]Edge, 0, 16),
	}
}

// start interns node 0, the τ-closure of the initial state.
func (s *Subsets) start() error {
	s.epoch++
	s.set = s.set[:0]
	if s.g.NumStates() > 0 {
		s.add(0)
	}
	_, err := s.close()
	return err
}

// Frontier reports whether node n holds an unexpanded frontier state.
func (s *Subsets) Frontier(n int32) bool { return s.frontier[n] }

// Succ returns node n's successors, one per observable label some member
// can perform, sorted by label rendering. The slice is shared.
func (s *Subsets) Succ(n int32) []Step {
	steps, _ := s.succOf(n) // reading a finished graph cannot fail
	return steps
}

// Next returns the successor of node n under the rendered label, or -1
// when no member can perform it.
func (s *Subsets) Next(n int32, label string) int32 {
	to, _ := s.next(n, label) // reading a finished graph cannot fail
	return to
}

// succOf is Succ with the error of an on-demand derivation.
func (s *Subsets) succOf(n int32) ([]Step, error) {
	if s.succ[n] == nil {
		if err := s.expand(n); err != nil {
			return nil, err
		}
	}
	return s.succ[n], nil
}

// next is Next with the error of an on-demand derivation.
func (s *Subsets) next(n int32, label string) (int32, error) {
	steps, err := s.succOf(n)
	if err != nil {
		return -1, err
	}
	for _, st := range steps {
		if st.Label == label {
			return st.To, nil
		}
	}
	return -1, nil
}

// expand computes node n's successors in one pass over its members' edges.
// The members' edges are known: closing the node derived them. On error
// node n stays unexpanded.
func (s *Subsets) expand(n int32) error {
	s.edges = s.edges[:0]
	for _, st := range s.mem[s.off[n]:s.off[n+1]] {
		for _, e := range s.g.Out(int(st)) {
			if s.g.Table.Observable(e.Label) {
				s.edges = append(s.edges, Edge{s.g.Table.Rendered(e.Label), e.To})
			}
		}
	}
	slices.SortFunc(s.edges, func(a, b Edge) int { return int(a.Label - b.Label) })
	steps := make([]Step, 0, 4)
	for i := 0; i < len(s.edges); {
		label := s.edges[i].Label
		s.epoch++
		s.set = s.set[:0]
		for ; i < len(s.edges) && s.edges[i].Label == label; i++ {
			s.add(s.edges[i].To)
		}
		to, err := s.close()
		if err != nil {
			return err
		}
		steps = append(steps, Step{Label: s.g.Table.Name(label), To: to})
	}
	slices.SortFunc(steps, func(a, b Step) int { return strings.Compare(a.Label, b.Label) })
	s.succ[n] = steps
	return nil
}

// add puts state st into the set being closed, unless already there.
func (s *Subsets) add(st int32) {
	if s.mark[st] != s.epoch {
		s.mark[st] = s.epoch
		s.set = append(s.set, st)
	}
}

// derive has the on-demand source derive state st, then widens the marks
// to the states it interned.
func (s *Subsets) derive(st int32) error {
	if err := s.src.derive(st); err != nil {
		return err
	}
	if n := s.g.NumStates(); n > len(s.mark) {
		s.mark = append(s.mark, make([]uint32, n-len(s.mark))...)
	}
	return nil
}

// close extends s.set by every state reachable through internal steps and
// returns the node of the result, interning it on first sight. On error
// nothing is interned.
func (s *Subsets) close() (int32, error) {
	for i := 0; i < len(s.set); i++ {
		st := s.set[i]
		if s.src != nil && !s.src.derived[st] {
			if err := s.derive(st); err != nil {
				return -1, err
			}
		}
		for _, e := range s.g.Out(int(st)) {
			if s.g.Table.Kind(e.Label) == LInternal {
				s.add(e.To)
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
			return n, nil
		}
	}
	n := int32(len(s.succ))
	s.byHash[h] = append(s.byHash[h], n)
	s.mem = append(s.mem, s.set...)
	s.off = append(s.off, int32(len(s.mem)))
	s.frontier = append(s.frontier, slices.ContainsFunc(s.set, func(st int32) bool { return s.g.Frontier(int(st)) }))
	s.succ = append(s.succ, nil)
	return n, nil
}
