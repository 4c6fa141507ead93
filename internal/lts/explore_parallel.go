package lts

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/lotos"
)

// visitedShardCount is the number of shards of the parallel explorer's
// visited map. A power of two so the shard of a hash is a mask away.
const visitedShardCount = 64

// shardedVisited is the key -> state-id index of the parallel explorer.
// Workers consult it concurrently (read-locked shards) to pre-resolve
// transitions whose target was discovered in an earlier level; inserts
// happen only during the serial per-level merge, so write contention is
// nil, but the structure stays safe for the concurrent read phase.
type shardedVisited struct {
	shards [visitedShardCount]visitedShard
}

type visitedShard struct {
	mu sync.RWMutex
	m  map[string]int
}

func newShardedVisited() *shardedVisited {
	v := &shardedVisited{}
	for i := range v.shards {
		v.shards[i].m = map[string]int{}
	}
	return v
}

// shardOf hashes a key (FNV-1a) onto a shard index.
func shardOf(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & (visitedShardCount - 1)
}

func (v *shardedVisited) get(key string) (int, bool) {
	s := &v.shards[shardOf(key)]
	s.mu.RLock()
	id, ok := s.m[key]
	s.mu.RUnlock()
	return id, ok
}

func (v *shardedVisited) put(key string, id int) {
	s := &v.shards[shardOf(key)]
	s.mu.Lock()
	s.m[key] = id
	s.mu.Unlock()
}

// derived is one state's transitions, with the target state id of each
// that the deriving worker found already known (-1 otherwise); the merge
// phase then skips the index lookup.
type derived struct {
	ts    []GenTransition
	known []int
}

// ExploreSourceParallel is ExploreSource with a frontier-at-a-time parallel
// BFS: every level's unexpanded states are derived concurrently by a worker
// pool (sized by GOMAXPROCS unless workers > 0), and the results are merged
// serially in frontier order, so state numbering is deterministic — repeated
// runs over the same source produce identical graphs, and Deadlocks/Labels
// output is stable.
//
// The source's Next method must be safe for concurrent use.
//
// The explored graph reaches the same (depth, obs-depth, expansion) fixpoint
// as the serial explorer: the same states, keys and edges, up to state
// numbering when MaxObsDepth re-expansions reorder discovery. The one
// exception is a MaxStates-truncated exploration, where serial and parallel
// order may cut different (equally valid) prefixes of the state space.
func ExploreSourceParallel(src StateSource, rootKey string, root any, lim Limits, workers int) (*Graph, error) {
	maxStates := lim.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := &Graph{Frontier: map[int]bool{}}
	var states []any
	visited := newShardedVisited()
	obsDepth := []int{}
	expanded := []bool{}
	add := func(key string, st any, depth, obs int) int {
		id := len(states)
		visited.put(key, id)
		states = append(states, st)
		g.Keys = append(g.Keys, key)
		g.Edges = append(g.Edges, nil)
		g.Depth = append(g.Depth, depth)
		obsDepth = append(obsDepth, obs)
		expanded = append(expanded, false)
		return id
	}
	add(rootKey, root, 0, 0)

	level := []int{0}
	for len(level) > 0 {
		var next []int
		inNext := map[int]bool{}
		enqueue := func(id int) {
			if !inNext[id] {
				inNext[id] = true
				next = append(next, id)
			}
		}
		// relax pushes head's (possibly improved) depths through one edge.
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

		// Phase 1 (serial): split the level into states to expand and
		// already-expanded states whose improvements propagate through
		// their cached edges. Depth-gated states become frontier.
		var toExpand []int
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

		// Phase 2 (parallel): derive the successors of every state to
		// expand. Workers pull indices from a shared cursor and annotate
		// transitions with already-known target ids.
		results := make([]derived, len(toExpand))
		errs := make([]error, len(toExpand))
		if len(toExpand) > 0 {
			w := workers
			if w > len(toExpand) {
				w = len(toExpand)
			}
			if w <= 1 {
				for i, id := range toExpand {
					if errs[i] = deriveOne(src, visited, states[id], &results[i]); errs[i] != nil {
						break
					}
				}
			} else {
				var cursor atomic.Int64
				var failed atomic.Bool
				var wg sync.WaitGroup
				for k := 0; k < w; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := int(cursor.Add(1)) - 1
							if i >= len(toExpand) || failed.Load() {
								return
							}
							if errs[i] = deriveOne(src, visited, states[toExpand[i]], &results[i]); errs[i] != nil {
								failed.Store(true)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			for i, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("exploring state %d: %w", toExpand[i], err)
				}
			}
		}

		// Phase 3 (serial): merge in frontier order — the deterministic
		// state numbering. New states join the next level; improved known
		// states are re-queued for propagation or late expansion.
		for i, head := range toExpand {
			expanded[head] = true
			releasePayload(states, head)
			delete(g.Frontier, head)
			ts := results[i].ts
			g.Edges[head] = make([]Edge, 0, len(ts))
			for j := range ts {
				t := &ts[j]
				nd := obsDepth[head]
				if t.Label.Observable() {
					nd++
				}
				id := results[i].known[j]
				ok := id >= 0
				if !ok {
					// Not known when derived; may have been added by an
					// earlier state of this same merge.
					id, ok = visited.get(t.Key)
				}
				if ok {
					g.Edges[head] = append(g.Edges[head], Edge{Label: t.Label, To: id})
					relax(head, Edge{Label: t.Label, To: id})
					continue
				}
				if len(states) >= maxStates {
					g.Frontier[head] = true
					continue
				}
				to := add(t.Key, t.To, g.Depth[head]+1, nd)
				g.Edges[head] = append(g.Edges[head], Edge{Label: t.Label, To: to})
				enqueue(to)
			}
		}
		level = next
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

// deriveOne derives the successors of one state and annotates them with
// already-known target ids from the sharded visited map.
func deriveOne(src StateSource, visited *shardedVisited, state any, out *derived) error {
	ts, err := src.Next(state)
	if err != nil {
		return err
	}
	known := make([]int, len(ts))
	for j := range ts {
		known[j] = -1
		if id, ok := visited.get(ts[j].Key); ok {
			known[j] = id
		}
	}
	*out = derived{ts: ts, known: known}
	return nil
}
