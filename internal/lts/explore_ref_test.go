package lts

import (
	"fmt"
	"testing"

	"repro/internal/lotos"
)

// refExplore is the reference explorer the level-synchronous one is checked
// against: a plain FIFO breadth-first search that re-queues a state
// whenever a path with fewer transitions or fewer observable steps reaches
// it. It agrees with explore on the (depth, obs-depth, expansion) fixpoint —
// the same states, keys, edges and depths — and numbers states the same way
// unless MaxObsDepth re-expansions reorder discovery.
func refExplore(src StateSource, rootKey string, root any, lim Limits) (*Graph, error) {
	maxStates := lim.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	g := &Graph{Frontier: map[int]bool{}}
	var states []any
	index := map[string]int{}
	obsDepth := []int{}
	expanded := []bool{}
	add := func(key string, st any, depth, obs int) int {
		id := len(states)
		index[key] = id
		states = append(states, st)
		g.Keys = append(g.Keys, key)
		g.Edges = append(g.Edges, nil)
		g.Depth = append(g.Depth, depth)
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
		if e.Label.Observable() {
			nd++
		}
		improved := false
		if nd < obsDepth[e.To] {
			obsDepth[e.To] = nd
			improved = true
		}
		if d := g.Depth[head] + 1; d < g.Depth[e.To] {
			g.Depth[e.To] = d
			improved = true
		}
		if improved {
			queue = append(queue, e.To)
		}
	}
	for len(queue) > 0 {
		head := queue[0]
		queue = queue[1:]
		if expanded[head] {
			for _, e := range g.Edges[head] {
				relax(head, e)
			}
			continue
		}
		if (lim.MaxDepth > 0 && g.Depth[head] >= lim.MaxDepth) ||
			(lim.MaxObsDepth > 0 && obsDepth[head] >= lim.MaxObsDepth) {
			g.Frontier[head] = true
			continue
		}
		ts, err := src.Next(states[head])
		if err != nil {
			return nil, fmt.Errorf("exploring state %d: %w", head, err)
		}
		expanded[head] = true
		delete(g.Frontier, head)
		g.Edges[head] = make([]Edge, 0, len(ts))
		for _, t := range ts {
			if id, ok := index[t.Key]; ok {
				g.Edges[head] = append(g.Edges[head], Edge{Label: t.Label, To: id})
				relax(head, Edge{Label: t.Label, To: id})
				continue
			}
			if len(states) >= maxStates {
				g.Frontier[head] = true
				continue
			}
			nd := obsDepth[head]
			if t.Label.Observable() {
				nd++
			}
			to := add(t.Key, t.To, g.Depth[head]+1, nd)
			g.Edges[head] = append(g.Edges[head], Edge{Label: t.Label, To: to})
			queue = append(queue, to)
		}
	}
	g.States = make([]lotos.Expr, len(states))
	for i, st := range states {
		if e, ok := st.(lotos.Expr); ok {
			g.States[i] = e
		}
	}
	g.ObsDepth = obsDepth
	g.Truncated = len(g.Frontier) > 0
	return g, nil
}

// engine is one exploration run over a source: the reference explorer, or
// the level-synchronous explorer at some worker count and index.
type engine struct {
	name string
	run  func(t *testing.T, src StateSource, rootKey string, root any, lim Limits) *Graph
}

// inMemory runs the level-synchronous explorer on workers workers with the
// in-memory index.
func inMemory(name string, workers int) engine {
	return engine{name, func(t *testing.T, src StateSource, rootKey string, root any, lim Limits) *Graph {
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
	return engine{name, func(t *testing.T, src StateSource, rootKey string, root any, lim Limits) *Graph {
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
	{"ref", func(t *testing.T, src StateSource, rootKey string, root any, lim Limits) *Graph {
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
