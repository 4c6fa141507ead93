package equiv

import (
	"repro/internal/lotos"
	"repro/internal/lts"
)

// QuotientWeak builds the quotient of a transition graph under weak
// bisimilarity: states are merged into their equivalence classes, and the
// class graph carries one edge per distinct (label, target-class) pair of
// its members' transitions, with internal moves inside one class collapsed.
// The result is weakly bisimilar to the input (checked by the tests) and is
// the canonical minimal-form presentation used when reporting explored
// behaviours.
//
// The initial state's class is state 0 of the quotient.
func QuotientWeak(g *lts.Graph) *lts.Graph {
	q, _ := QuotientWeakMap(g)
	return q
}

// QuotientWeakMap is QuotientWeak returning, alongside the quotient, the
// per-state class assignment: classOf[s] is the quotient state holding input
// state s. The FSM compiler (internal/fsm) uses the assignment to relate its
// exact execution tables to the minimized canonical tables.
func QuotientWeakMap(g *lts.Graph) (*lts.Graph, []int32) {
	e := newWeakEngine(g, nil)
	return buildQuotient(g, func(s int) int32 { return e.stateBlock(s) })
}

// QuotientByBlocks builds the class graph of any per-state block
// assignment, as QuotientWeak does for weak bisimilarity: blockOf(s) names
// state s's class, and states sharing a block become one quotient state.
func QuotientByBlocks(g *lts.Graph, blockOf func(int) int32) *lts.Graph {
	q, _ := buildQuotient(g, blockOf)
	return q
}

// buildQuotient constructs the class graph from a per-state block
// assignment, returning it with the renumbered per-state class map. The
// quotient shares g's label table.
func buildQuotient(g *lts.Graph, blockOf func(int) int32) (*lts.Graph, []int32) {
	// Renumber blocks so the initial state's block is 0, then by first
	// appearance.
	blockIndex := map[int32]int{}
	count := 0
	assign := func(b int32) int {
		if id, ok := blockIndex[b]; ok {
			return id
		}
		id := count
		blockIndex[b] = id
		count++
		return id
	}
	assign(blockOf(0))
	for s := 0; s < g.NumStates(); s++ {
		assign(blockOf(s))
	}

	n := count
	q := lts.NewGraph(n, g.Table)
	if g.States != nil {
		q.States = make([]lotos.Expr, n)
	}

	// assigned tracks which classes have adopted a representative state.
	// (A key-emptiness check would misbehave for states whose canonical key
	// is legitimately empty.)
	assigned := make([]bool, n)
	adopt := func(from, s int) {
		if assigned[from] {
			return
		}
		assigned[from] = true
		q.Keys[from] = g.Keys[s]
		if s < len(g.States) {
			q.States[from] = g.States[s]
		}
	}

	// Each class's row collects one edge per distinct (label, target class)
	// pair of its members, in member order.
	rows := make([][]lts.Edge, n)
	seen := make([]map[lts.Edge]bool, n)
	for i := range seen {
		seen[i] = map[lts.Edge]bool{}
	}
	classOf := make([]int32, g.NumStates())
	for s := 0; s < g.NumStates(); s++ {
		from := blockIndex[blockOf(s)]
		classOf[s] = int32(from)
		adopt(from, s)
		for _, e := range g.Out(s) {
			to := int32(blockIndex[blockOf(int(e.To))])
			if g.Table.Kind(e.Label) == lts.LInternal && int(to) == from {
				continue // internal move within one class: collapsed
			}
			qe := lts.Edge{Label: e.Label, To: to}
			if seen[from][qe] {
				continue
			}
			seen[from][qe] = true
			rows[from] = append(rows[from], qe)
		}
		if g.Frontier(s) {
			q.SetFrontier(from, true)
		}
	}
	for c, row := range rows {
		q.SetOut(c, row...)
	}
	q.Truncated = g.Truncated
	return q, classOf
}

// NumClassesWeak returns the number of weak-bisimilarity classes of g.
func NumClassesWeak(g *lts.Graph) int {
	return newWeakEngine(g, nil).blocks
}
