package lts

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	g, _, err := explore(&exprSource{env: env}, lotos.Canon(root), root, lim, 1, mapIndex{})
	return g, err
}

// StateSource abstracts a transition system for the explorer: the lts SOS
// semantics here, and the entity×medium product in internal/compose.
type StateSource interface {
	// Next derives the transitions of a state. The returned targets carry
	// their canonical keys. With more than one worker, Next is called
	// concurrently.
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
// resulting Graph's States hold the source's opaque state values where they
// are lotos.Expr (as under Explore) and nil otherwise.
//
// Each BFS level is derived inline when workers <= 1 and on a pool of that
// many goroutines otherwise, then merged in frontier order, so the graph —
// state numbering included — is the same for every worker count.
//
// A nil spill keeps the visited index in memory. A non-nil spill bounds it
// by a byte budget, spilling sorted runs to disk, and returns the spill
// statistics (non-nil even on error); the graph is again the same. With
// spill.StatsOnly no graph is retained and only the statistics are
// returned.
func ExploreSource(src StateSource, rootKey string, root any, lim Limits, workers int, spill *SpillConfig) (*Graph, *SpillStats, error) {
	if spill != nil {
		return exploreSpill(src, rootKey, root, lim, workers, *spill)
	}
	g, _, err := explore(src, rootKey, root, lim, workers, mapIndex{})
	return g, nil, err
}

// visitedIndex maps state keys to state ids. The explorer writes it only
// while merging a level, which is serial; resolve runs once per level,
// after the level is derived and before it is merged.
type visitedIndex interface {
	// resolve prepares get for the target keys of a derived level.
	resolve(level [][]GenTransition) error
	// get returns the id of a key added before the level or during its
	// merge.
	get(key string) (int, bool)
	// put adds a key known to be absent.
	put(key string, id int) error
}

// mapIndex is the in-memory visited index.
type mapIndex map[string]int

func (mapIndex) resolve([][]GenTransition) error { return nil }

func (m mapIndex) get(key string) (int, bool) {
	id, ok := m[key]
	return id, ok
}

func (m mapIndex) put(key string, id int) error {
	m[key] = id
	return nil
}

// releasePayload drops the payload of an expanded state unless it is a
// lotos.Expr, which Graph.States reports. An expanded state is never derived
// again — depth improvements propagate through its cached edges — so the
// explorer retains only keys, edges and depths for it.
func releasePayload(states []any, id int) {
	if _, ok := states[id].(lotos.Expr); !ok {
		states[id] = nil
	}
}

// explore is the level-synchronous BFS behind every exploration. Each level
// runs in three steps: gate its states on MaxDepth and MaxObsDepth (a gated
// state joins the frontier, and an already-expanded state re-queued by a
// depth improvement propagates it through its cached edges); derive the
// successors of the remaining states (deriveAll); then merge the derived
// transitions serially, in frontier order. Only the merge writes the index
// and numbers new states, so neither the worker count nor the index changes
// the graph. capped reports that MaxStates refused at least one new state.
func explore(src StateSource, rootKey string, root any, lim Limits, workers int, idx visitedIndex) (g *Graph, capped bool, err error) {
	maxStates := lim.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	g = &Graph{Frontier: map[int]bool{}}
	var (
		states           []any
		obsDepth         []int
		expanded, queued []bool
		next             []int
	)
	add := func(key string, st any, depth, obs int) (int, error) {
		id := len(states)
		if err := idx.put(key, id); err != nil {
			return 0, err
		}
		states = append(states, st)
		g.Keys = append(g.Keys, key)
		g.Edges = append(g.Edges, nil)
		g.Depth = append(g.Depth, depth)
		obsDepth = append(obsDepth, obs)
		expanded = append(expanded, false)
		queued = append(queued, false)
		return id, nil
	}
	enqueue := func(id int) {
		if !queued[id] {
			queued[id] = true
			next = append(next, id)
		}
	}
	// relax pushes head's depths through one edge. Depth must be relaxed
	// alongside obsDepth: a state re-queued with a shorter transition
	// distance would otherwise leave stale Depth values behind for the
	// MaxDepth gate to read.
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
			enqueue(e.To)
		}
	}

	if _, err := add(rootKey, root, 0, 0); err != nil {
		return nil, false, err
	}
	for level := []int{0}; len(level) > 0; level = next {
		next = nil
		var toExpand []int
		for _, id := range level {
			queued[id] = false
		}
		for _, id := range level {
			switch {
			case expanded[id]:
				for _, e := range g.Edges[id] {
					relax(id, e)
				}
			case lim.MaxDepth > 0 && g.Depth[id] >= lim.MaxDepth,
				lim.MaxObsDepth > 0 && obsDepth[id] >= lim.MaxObsDepth:
				g.Frontier[id] = true
			default:
				toExpand = append(toExpand, id)
			}
		}

		payloads := make([]any, len(toExpand))
		for i, id := range toExpand {
			payloads[i] = states[id]
		}
		results, failed, err := deriveAll(src, payloads, workers)
		if err != nil {
			return nil, false, fmt.Errorf("exploring state %d: %w", toExpand[failed], err)
		}
		if err := idx.resolve(results); err != nil {
			return nil, false, err
		}

		for i, head := range toExpand {
			expanded[head] = true
			releasePayload(states, head)
			delete(g.Frontier, head)
			ts := results[i]
			results[i] = nil
			edges := make([]Edge, 0, len(ts))
			for j := range ts {
				t := &ts[j]
				if id, ok := idx.get(t.Key); ok {
					edges = append(edges, Edge{Label: t.Label, To: id})
					relax(head, edges[len(edges)-1])
					continue
				}
				if len(states) >= maxStates {
					capped = true
					g.Frontier[head] = true
					continue
				}
				nd := obsDepth[head]
				if t.Label.Observable() {
					nd++
				}
				to, err := add(t.Key, t.To, g.Depth[head]+1, nd)
				if err != nil {
					return nil, false, err
				}
				edges = append(edges, Edge{Label: t.Label, To: to})
				enqueue(to)
			}
			g.Edges[head] = edges
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
	return g, capped, nil
}

// deriveAll derives the successors of every payload, inline when workers <=
// 1 and otherwise on a pool of goroutines that claim payloads through an
// atomic cursor. On failure it returns the index of the first failing
// payload in order: a worker claims a payload only while no derivation has
// failed and derives every payload it claims, so every payload before a
// failing one has been derived.
func deriveAll(src StateSource, payloads []any, workers int) ([][]GenTransition, int, error) {
	results := make([][]GenTransition, len(payloads))
	if workers > len(payloads) {
		workers = len(payloads)
	}
	if workers <= 1 {
		for i, st := range payloads {
			ts, err := src.Next(st)
			if err != nil {
				return nil, i, err
			}
			results[i] = ts
		}
		return results, 0, nil
	}
	errs := make([]error, len(payloads))
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(payloads) {
					return
				}
				if results[i], errs[i] = src.Next(payloads[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, i, err
		}
	}
	return results, 0, nil
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
