package lts

// PathStep is one edge on a concrete path through a Graph: the source state,
// the edge's label and its target. A path is a sequence of steps whose
// targets chain (step[k].To == step[k+1].From).
type PathStep struct {
	From  int
	Label Label
	To    int
}

// ShortestPathTo returns a shortest transition path (fewest edges) from the
// initial state 0 to the nearest state satisfying target, found by a
// parent-pointer breadth-first search over the explored edges. The second
// result is false when no target state is reachable. An empty (non-nil)
// path with ok=true means the initial state itself is a target.
//
// Minimality is exact on the explored graph: BFS discovers every state at
// its minimal edge distance, so no strictly shorter path to any target
// exists among the explored transitions.
func (g *Graph) ShortestPathTo(target func(state int) bool) ([]PathStep, bool) {
	n := g.NumStates()
	if n == 0 {
		return nil, false
	}
	if target(0) {
		return []PathStep{}, true
	}
	// Parent pointers: the state we came from and the edge index taken.
	parent := make([]int32, n)
	parentEdge := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	queue := make([]int, 0, 64)
	queue = append(queue, 0)
	parent[0] = 0 // root marks itself visited
	for len(queue) > 0 {
		head := queue[0]
		queue = queue[1:]
		for ei, e := range g.Out(head) {
			if parent[e.To] >= 0 || e.To == 0 {
				continue
			}
			parent[e.To] = int32(head)
			parentEdge[e.To] = int32(ei)
			if target(int(e.To)) {
				return g.unwind(parent, parentEdge, int(e.To)), true
			}
			queue = append(queue, int(e.To))
		}
	}
	return nil, false
}

// unwind follows the parent pointers back from state to the root and returns
// the forward path.
func (g *Graph) unwind(parent, parentEdge []int32, state int) []PathStep {
	var rev []PathStep
	for state != 0 {
		p := int(parent[state])
		rev = append(rev, g.Step(p, g.Out(p)[parentEdge[state]]))
		state = p
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Step returns the path step that takes edge e out of state from.
func (g *Graph) Step(from int, e Edge) PathStep {
	return PathStep{From: from, Label: g.Label(e.Label), To: int(e.To)}
}

// ObservableTrace projects a path onto its observable labels, rendered as by
// Label.String (internal steps are skipped; δ appears as "delta").
func ObservableTrace(path []PathStep) []string {
	var out []string
	for _, st := range path {
		if st.Label.Observable() {
			out = append(out, st.Label.String())
		}
	}
	return out
}
