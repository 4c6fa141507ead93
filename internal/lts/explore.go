package lts

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/lotos"
)

// Limits bounds state-space exploration. Zero fields select defaults.
type Limits struct {
	// MaxStates caps the number of distinct states explored.
	MaxStates int
	// MaxDepth caps the exploration depth (number of transitions from the
	// initial state). 0 means unbounded (up to MaxStates).
	MaxDepth int
	// MaxObsDepth caps the exploration depth counted in OBSERVABLE
	// transitions only (internal actions are free). With MaxObsDepth = L
	// and no other truncation, the explored graph contains every weak
	// trace of length up to L exactly — the sound bounded comparison used
	// for infinite-state recursive specifications. 0 means unbounded.
	MaxObsDepth int
}

// DefaultMaxStates is the default exploration cap.
const DefaultMaxStates = 20000

// Edge is an outgoing transition of an explored state.
type Edge struct {
	Label Label
	To    int // target state index
}

// Graph is an explored (possibly truncated) labelled transition system.
type Graph struct {
	// States holds one representative expression per state; state 0 is the
	// initial state.
	States []lotos.Expr
	// Keys holds the canonical key of each state.
	Keys []string
	// Edges holds the outgoing edges of each state, in derivation order.
	Edges [][]Edge
	// Depth holds the BFS depth at which each state was first reached.
	Depth []int
	// ObsDepth holds the minimal number of observable transitions needed
	// to reach each state.
	ObsDepth []int
	// Truncated reports that a limit stopped exploration before closure:
	// some states may have unexplored successors.
	Truncated bool
	// Frontier marks states whose successors were NOT derived because of
	// truncation (their Edges are empty but they are not terminal).
	Frontier map[int]bool
}

// NumStates returns the number of explored states.
func (g *Graph) NumStates() int { return len(g.States) }

// NumTransitions returns the number of explored transitions.
func (g *Graph) NumTransitions() int {
	n := 0
	for _, es := range g.Edges {
		n += len(es)
	}
	return n
}

// Explore builds the reachable transition graph of root under env, up to the
// limits. Exploration is breadth-first, so Depth is the shortest transition
// distance from the initial state. When MaxObsDepth is set, states are
// (re-)expanded whenever a path with fewer observable steps reaches them, so
// the observable-depth accounting is exact.
func Explore(env *Env, root lotos.Expr, lim Limits) (*Graph, error) {
	return exploreGeneric(&exprSource{env: env}, lotos.Canon(root), root, lim)
}

// StateSource abstracts a transition system for the generic explorer: the
// lts SOS semantics here, and the entity×medium product in internal/compose.
type StateSource interface {
	// Next derives the transitions of a state. The returned targets carry
	// their canonical keys.
	Next(state any) ([]GenTransition, error)
}

// GenTransition is a transition of a generic state source.
type GenTransition struct {
	Label Label
	Key   string
	To    any
}

// exprSource explores expressions under an SOS environment. Next is safe
// for concurrent use: the environment memoizes process instantiations in a
// map, so derivations are serialized.
type exprSource struct {
	env *Env
	mu  sync.Mutex
}

func (s *exprSource) Next(state any) ([]GenTransition, error) {
	e := state.(lotos.Expr)
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, err := s.env.Transitions(e)
	if err != nil {
		return nil, fmt.Errorf("state %s: %w", lotos.Format(e), err)
	}
	out := make([]GenTransition, len(ts))
	for i, t := range ts {
		out[i] = GenTransition{Label: t.Label, Key: lotos.Canon(t.To), To: t.To}
	}
	return out, nil
}

// ExploreSource runs the bounded exploration over any StateSource; the
// resulting Graph's States hold the source's opaque state values (they are
// lotos.Expr for Explore, and composite states for internal/compose).
func ExploreSource(src StateSource, rootKey string, root any, lim Limits) (*Graph, error) {
	return exploreGeneric(src, rootKey, root, lim)
}

// releasePayload drops the payload of an expanded state unless it is a
// lotos.Expr, which Graph.States reports. An expanded state is never derived
// again — depth improvements propagate through its cached edges — so the
// explorers retain only keys, edges and depths for it.
func releasePayload(states []any, id int) {
	if _, ok := states[id].(lotos.Expr); !ok {
		states[id] = nil
	}
}

func exploreGeneric(src StateSource, rootKey string, root any, lim Limits) (*Graph, error) {
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
		if id, ok := index[key]; ok {
			return id
		}
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
	for len(queue) > 0 {
		head := queue[0]
		queue = queue[1:]
		if expanded[head] {
			// Re-expansion after a depth or observable-depth improvement:
			// refresh the successors through the already-derived edges. Depth
			// must be propagated alongside obsDepth: a state re-queued with a
			// shorter transition distance would otherwise leave stale Depth
			// values behind, and the MaxDepth truncation check would read
			// them.
			for _, e := range g.Edges[head] {
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
			continue
		}
		if lim.MaxDepth > 0 && g.Depth[head] >= lim.MaxDepth {
			g.Truncated = true
			g.Frontier[head] = true
			continue
		}
		if lim.MaxObsDepth > 0 && obsDepth[head] >= lim.MaxObsDepth {
			g.Truncated = true
			g.Frontier[head] = true
			continue
		}
		ts, err := src.Next(states[head])
		if err != nil {
			return nil, fmt.Errorf("exploring state %d: %w", head, err)
		}
		expanded[head] = true
		releasePayload(states, head)
		delete(g.Frontier, head)
		g.Edges[head] = make([]Edge, 0, len(ts))
		for i := range ts {
			t := &ts[i]
			nd := obsDepth[head]
			if t.Label.Observable() {
				nd++
			}
			if id, ok := index[t.Key]; ok {
				g.Edges[head] = append(g.Edges[head], Edge{Label: t.Label, To: id})
				improved := false
				if nd < obsDepth[id] {
					obsDepth[id] = nd
					improved = true
				}
				if d := g.Depth[head] + 1; d < g.Depth[id] {
					g.Depth[id] = d
					improved = true
				}
				if improved {
					queue = append(queue, id)
				}
				continue
			}
			if len(states) >= maxStates {
				g.Truncated = true
				g.Frontier[head] = true
				continue
			}
			to := add(t.Key, t.To, g.Depth[head]+1, nd)
			g.Edges[head] = append(g.Edges[head], Edge{Label: t.Label, To: to})
			queue = append(queue, to)
		}
	}
	// Frontier states reached below the observable bound but never expanded
	// (e.g. added after the state cap) stay marked.
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

// ExploreSpec resolves and explores a complete specification.
func ExploreSpec(sp *lotos.Spec, lim Limits) (*Graph, error) {
	env, err := EnvFor(sp)
	if err != nil {
		return nil, err
	}
	return Explore(env, sp.Root.Expr, lim)
}

// Deadlocks returns the states that have no outgoing transitions and were
// not reached by a successful-termination step: genuine deadlocks, as
// opposed to the terminal state following δ. Frontier states of a truncated
// graph are not reported (their successors are unknown).
func (g *Graph) Deadlocks() []int {
	terminated := map[int]bool{}
	for _, es := range g.Edges {
		for _, e := range es {
			if e.Label.Kind == LDelta {
				terminated[e.To] = true
			}
		}
	}
	var out []int
	for s := range g.States {
		if len(g.Edges[s]) == 0 && !terminated[s] && !g.Frontier[s] {
			out = append(out, s)
		}
	}
	return out
}

// Labels returns the sorted set of distinct observable labels of the graph
// in readable form (gate keys plus "delta").
func (g *Graph) Labels() []string {
	set := map[string]bool{}
	for _, es := range g.Edges {
		for _, e := range es {
			switch e.Label.Kind {
			case LDelta:
				set["delta"] = true
			case LEvent:
				set[e.Label.Ev.Gate()] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CanReachDelta reports for each state whether some path leads to a δ
// transition (successful termination is still possible).
func (g *Graph) CanReachDelta() []bool {
	// Backward closure from sources of δ edges.
	rev := make([][]int, len(g.States))
	seed := make([]bool, len(g.States))
	for s, es := range g.Edges {
		for _, e := range es {
			rev[e.To] = append(rev[e.To], s)
			if e.Label.Kind == LDelta {
				seed[s] = true
			}
		}
	}
	out := make([]bool, len(g.States))
	var stack []int
	for s, ok := range seed {
		if ok {
			out[s] = true
			stack = append(stack, s)
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
