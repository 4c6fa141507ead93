package lts

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/lotos"
)

// refExplore is the reference explorer the level-synchronous one is checked
// against: a plain FIFO breadth-first search that re-queues a state
// whenever a path with fewer transitions or fewer observable steps reaches
// it. It agrees with explore on the (depth, obs-depth, expansion) fixpoint —
// the same states, keys, edges and depths — and numbers states the same way
// unless MaxObsDepth re-expansions reorder discovery.
func refExplore(src StateSource, rootKey string, root State, lim Limits) (*Graph, error) {
	maxStates := lim.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	table := src.Labels()
	var (
		states   []State
		edges    [][]Edge
		frontier = map[int]bool{}
		keys     []string
		depth    []int
	)
	index := map[string]int{}
	obsDepth := []int{}
	expanded := []bool{}
	add := func(key string, st State, d, obs int) int {
		id := len(states)
		index[key] = id
		states = append(states, st)
		keys = append(keys, key)
		edges = append(edges, nil)
		depth = append(depth, d)
		obsDepth = append(obsDepth, obs)
		expanded = append(expanded, false)
		return id
	}
	add(rootKey, root, 0, 0)
	queue := []int{0}
	// relax pushes head's depths through one edge, re-queueing an improved
	// target.
	relax := func(head int, e Edge) {
		nd := obsDepth[head]
		if table.Observable(e.Label) {
			nd++
		}
		improved := false
		if nd < obsDepth[e.To] {
			obsDepth[e.To] = nd
			improved = true
		}
		if d := depth[head] + 1; d < depth[e.To] {
			depth[e.To] = d
			improved = true
		}
		if improved {
			queue = append(queue, int(e.To))
		}
	}
	for len(queue) > 0 {
		head := queue[0]
		queue = queue[1:]
		if expanded[head] {
			for _, e := range edges[head] {
				relax(head, e)
			}
			continue
		}
		if (lim.MaxDepth > 0 && depth[head] >= lim.MaxDepth) ||
			(lim.MaxObsDepth > 0 && obsDepth[head] >= lim.MaxObsDepth) {
			frontier[head] = true
			continue
		}
		var ts Successors
		if err := src.Next(states[head], &ts); err != nil {
			return nil, fmt.Errorf("exploring state %d: %w", head, err)
		}
		expanded[head] = true
		delete(frontier, head)
		for j := 0; j < ts.Len(); j++ {
			label, key := ts.Label(j), string(ts.Key(j))
			if id, ok := index[key]; ok {
				edges[head] = append(edges[head], Edge{Label: label, To: int32(id)})
				relax(head, Edge{Label: label, To: int32(id)})
				continue
			}
			if len(states) >= maxStates {
				frontier[head] = true
				continue
			}
			nd := obsDepth[head]
			if table.Observable(label) {
				nd++
			}
			st := ts.State(j)
			st.Words = slices.Clone(st.Words)
			to := add(key, st, depth[head]+1, nd)
			edges[head] = append(edges[head], Edge{Label: label, To: int32(to)})
			queue = append(queue, to)
		}
	}
	g := NewGraph(len(states), table)
	copy(g.Keys, keys)
	copy(g.Depth, depth)
	copy(g.ObsDepth, obsDepth)
	for s, es := range edges {
		g.SetOut(s, es...)
		if frontier[s] {
			g.SetFrontier(s, true)
		}
	}
	for i, st := range states {
		if e, ok := st.Val.(lotos.Expr); ok {
			if g.States == nil {
				g.States = make([]lotos.Expr, len(states))
			}
			g.States[i] = e
		}
	}
	g.Truncated = len(frontier) > 0
	return g, nil
}

// engine is one exploration run over a source: the reference explorer, or
// the level-synchronous explorer at some worker count and index.
type engine struct {
	name string
	run  func(t *testing.T, src StateSource, rootKey string, root State, lim Limits) *Graph
}

// inMemory runs the level-synchronous explorer on workers workers with the
// in-memory index.
func inMemory(name string, workers int) engine {
	return engine{name, func(t *testing.T, src StateSource, rootKey string, root State, lim Limits) *Graph {
		t.Helper()
		g, _, err := ExploreSource(src, rootKey, root, lim, workers, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return g
	}}
}

// spilled runs the level-synchronous explorer on workers workers with the
// spilling index under the given byte budget.
func spilled(name string, workers int, budget int64) engine {
	return engine{name, func(t *testing.T, src StateSource, rootKey string, root State, lim Limits) *Graph {
		t.Helper()
		g, _, err := ExploreSource(src, rootKey, root, lim, workers, &SpillConfig{Budget: budget, Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return g
	}}
}

// engines are the reference explorer and the level-synchronous explorer
// inline, on four workers, and on two workers over a spilling index of a 1
// KiB budget.
var engines = []engine{
	{"ref", func(t *testing.T, src StateSource, rootKey string, root State, lim Limits) *Graph {
		t.Helper()
		g, err := refExplore(src, rootKey, root, lim)
		if err != nil {
			t.Fatalf("ref: %v", err)
		}
		return g
	}},
	inMemory("serial", 1),
	inMemory("parallel", 4),
	spilled("spill", 2, 1024),
}
