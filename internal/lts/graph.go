package lts

import (
	"math/bits"
	"sort"

	"repro/internal/lotos"
)

// Edge is an outgoing transition of an explored state: the interned label
// (see Graph.Table) and the target state.
type Edge struct {
	Label LabelID
	To    int32
}

// span locates one state's edges in a graph's edge arena: [lo, hi).
type span struct{ lo, hi int32 }

// Graph is an explored (possibly truncated) labelled transition system.
//
// The graph holds no per-state or per-edge pointers: every state's edges sit
// in one packed arena of Edge values, located by a per-state span, with
// labels interned in Table; the truncation frontier is a bitset. Labels are
// rendered only where a caller asks for them (Label, Labels, DOT).
type Graph struct {
	// States holds one representative expression per state when the explored
	// states are expressions (Explore, ExploreSpec), and is nil otherwise;
	// state 0 is the initial state.
	States []lotos.Expr
	// Keys holds the canonical key of each state.
	Keys []string
	// Depth holds the BFS depth at which each state was first reached.
	Depth []int
	// ObsDepth holds the minimal number of observable transitions needed
	// to reach each state.
	ObsDepth []int
	// Truncated reports that a limit stopped exploration before closure:
	// some states may have unexplored successors.
	Truncated bool
	// Table interns the labels of the graph's edges. It may be shared with
	// other graphs, which then speak the same label ids.
	Table *LabelTable

	spans    []span
	arena    []Edge
	frontier []uint64
}

// NewGraph returns a graph of n states without edges, keys or depths
// filled in, whose labels intern into table (a fresh table when nil). Edges
// are added with SetOut.
func NewGraph(n int, table *LabelTable) *Graph {
	if table == nil {
		table = NewLabelTable()
	}
	return &Graph{
		Keys:     make([]string, n),
		Depth:    make([]int, n),
		ObsDepth: make([]int, n),
		Table:    table,
		spans:    make([]span, n),
	}
}

// NumStates returns the number of explored states.
func (g *Graph) NumStates() int { return len(g.spans) }

// NumTransitions returns the number of explored transitions.
func (g *Graph) NumTransitions() int {
	n := 0
	for _, sp := range g.spans {
		n += int(sp.hi - sp.lo)
	}
	return n
}

// Out returns the outgoing edges of state s, in derivation order. The slice
// is shared with the graph.
func (g *Graph) Out(s int) []Edge {
	sp := g.spans[s]
	return g.arena[sp.lo:sp.hi:sp.hi]
}

// Label returns the label an edge's id stands for.
func (g *Graph) Label(id LabelID) Label { return g.Table.Label(id) }

// SetOut makes es the outgoing edges of state s, appending them to the edge
// arena (edges set for s before are dropped from the graph).
func (g *Graph) SetOut(s int, es ...Edge) {
	lo := int32(len(g.arena))
	g.arena = append(g.arena, es...)
	g.spans[s] = span{lo, int32(len(g.arena))}
}

// addState appends a state without edges and returns its number.
func (g *Graph) addState() int {
	g.spans = grow(g.spans, span{})
	return len(g.spans) - 1
}

// Frontier reports whether state s's successors were NOT derived because of
// truncation (its edges are incomplete, but it is not terminal).
func (g *Graph) Frontier(s int) bool {
	w := s >> 6
	return w < len(g.frontier) && g.frontier[w]&(1<<(s&63)) != 0
}

// SetFrontier marks state s as a frontier state, or clears the mark.
func (g *Graph) SetFrontier(s int, on bool) {
	w := s >> 6
	if on {
		for w >= len(g.frontier) {
			g.frontier = append(g.frontier, 0)
		}
		g.frontier[w] |= 1 << (s & 63)
	} else if w < len(g.frontier) {
		g.frontier[w] &^= 1 << (s & 63)
	}
}

// FrontierStates returns the frontier states in ascending order.
func (g *Graph) FrontierStates() []int {
	var out []int
	for w, word := range g.frontier {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

// Deadlocks returns the states that have no outgoing transitions and were
// not reached by a successful-termination step: genuine deadlocks, as
// opposed to the terminal state following δ. Frontier states of a truncated
// graph are not reported (their successors are unknown).
func (g *Graph) Deadlocks() []int {
	terminated := make([]bool, g.NumStates())
	for s := range g.spans {
		for _, e := range g.Out(s) {
			if g.Table.Kind(e.Label) == LDelta {
				terminated[e.To] = true
			}
		}
	}
	var out []int
	for s, sp := range g.spans {
		if sp.lo == sp.hi && !terminated[s] && !g.Frontier(s) {
			out = append(out, s)
		}
	}
	return out
}

// Labels returns the sorted set of distinct observable labels of the graph
// in readable form (gate keys plus "delta").
func (g *Graph) Labels() []string {
	seen := make([]bool, g.Table.Len())
	var out []string
	for s := range g.spans {
		for _, e := range g.Out(s) {
			if seen[e.Label] {
				continue
			}
			seen[e.Label] = true
			switch l := g.Table.Label(e.Label); l.Kind {
			case LDelta:
				out = append(out, "delta")
			case LEvent:
				out = append(out, l.Ev.Gate())
			}
		}
	}
	sort.Strings(out)
	return out
}

// CanReachDelta reports for each state whether some path leads to a δ
// transition (successful termination is still possible).
func (g *Graph) CanReachDelta() []bool {
	// Backward closure from sources of δ edges.
	n := g.NumStates()
	rev := make([][]int32, n)
	out := make([]bool, n)
	var stack []int32
	for s := 0; s < n; s++ {
		for _, e := range g.Out(s) {
			rev[e.To] = append(rev[e.To], int32(s))
			if !out[s] && g.Table.Kind(e.Label) == LDelta {
				out[s] = true
				stack = append(stack, int32(s))
			}
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if !out[p] {
				out[p] = true
				stack = append(stack, p)
			}
		}
	}
	return out
}
