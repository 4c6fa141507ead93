package lts

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lotos"
)

// Disk-spilling exploration.
//
// The in-memory explorers hold the complete visited index (key -> state id)
// in one map, so the reachable state count is bounded by RAM. The spilling
// explorer bounds the index instead: entries accumulate in a small map and,
// whenever its estimated footprint crosses a byte budget, are written out as
// a sorted run file. Because a key is only ever inserted after a lookup
// missed, the in-memory map and every run hold pairwise-disjoint key sets,
// and a lookup is a map probe plus one sequential merge against each run.
// Lookups are batched per BFS level, so each level pays one linear pass over
// the spilled runs regardless of how many keys it resolves.
//
// State payloads are dropped once a state has been expanded (an expanded
// state is never re-derived — depth improvements propagate through its
// cached edges), so the explorer's working set is the byte budget plus the
// unexpanded frontier.

// DefaultSpillBudget is the default in-memory index budget of the spilling
// explorer (bytes).
const DefaultSpillBudget = 64 << 20

// SpillConfig tunes the disk-spilling explorer.
type SpillConfig struct {
	// Budget bounds the estimated in-memory index footprint in bytes; past
	// it, the index spills a sorted run. 0 selects DefaultSpillBudget.
	Budget int64
	// Dir is the parent directory for the run files ("" = the OS temp dir).
	// A per-exploration temp directory is created inside it and removed when
	// the exploration returns.
	Dir string
	// StatsOnly discards the graph and counts states and transitions only,
	// so nothing grows with the explored size except the bounded index and
	// the BFS frontier. Incompatible with MaxDepth/MaxObsDepth limits
	// (those need retained edges to propagate depth improvements).
	StatsOnly bool
}

// SpillStats reports what the spilling explorer did.
type SpillStats struct {
	// States and Transitions count the distinct states discovered and the
	// transitions derived from expanded states.
	States      int64 `json:"states"`
	Transitions int64 `json:"transitions"`
	// Runs is the number of sorted runs spilled; SpilledBytes their total
	// size on disk; PeakMemBytes the high-water estimate of the in-memory
	// index.
	Runs         int   `json:"runs"`
	SpilledBytes int64 `json:"spilledBytes"`
	PeakMemBytes int64 `json:"peakMemBytes"`
	// Truncated reports that MaxStates stopped the exploration.
	Truncated bool `json:"truncated,omitempty"`
}

// spillEntryOverhead estimates the per-entry bookkeeping of the in-memory
// index beyond the key bytes (string header, id, map bucket share).
const spillEntryOverhead = 48

// spillRun is one sorted run file; its keys are disjoint from every other
// run's and from the in-memory map.
type spillRun struct {
	path     string
	min, max string
}

// spillIndex is the budget-bounded visited index.
type spillIndex struct {
	dir    string
	budget int64

	mem      map[string]int
	memBytes int64
	peak     int64

	runs         []spillRun
	spilledBytes int64
}

func newSpillIndex(dir string, budget int64) *spillIndex {
	return &spillIndex{dir: dir, budget: budget, mem: map[string]int{}}
}

// put inserts a key known to be absent from the index, spilling a run when
// the in-memory footprint crosses the budget.
func (x *spillIndex) put(key string, id int) error {
	x.mem[key] = id
	x.memBytes += int64(len(key)) + spillEntryOverhead
	if x.memBytes > x.peak {
		x.peak = x.memBytes
	}
	if x.memBytes < x.budget {
		return nil
	}
	return x.flush()
}

// flush writes the in-memory entries as one sorted run and resets the map.
func (x *spillIndex) flush() error {
	if len(x.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(x.mem))
	for k := range x.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	path := filepath.Join(x.dir, fmt.Sprintf("run-%06d", len(x.runs)))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("lts: spilling run: %w", err)
	}
	w := bufio.NewWriter(f)
	var buf [2 * binary.MaxVarintLen64]byte
	written := int64(0)
	for _, k := range keys {
		n := binary.PutUvarint(buf[:], uint64(len(k)))
		if _, err := w.Write(buf[:n]); err == nil {
			_, err = w.WriteString(k)
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("lts: spilling run: %w", err)
		}
		m := binary.PutUvarint(buf[:], uint64(x.mem[k]))
		if _, err := w.Write(buf[:m]); err != nil {
			f.Close()
			return fmt.Errorf("lts: spilling run: %w", err)
		}
		written += int64(n + len(k) + m)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("lts: spilling run: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lts: spilling run: %w", err)
	}
	x.runs = append(x.runs, spillRun{path: path, min: keys[0], max: keys[len(keys)-1]})
	x.spilledBytes += written
	x.mem = map[string]int{}
	x.memBytes = 0
	return nil
}

// lookup resolves a batch of keys in one pass: a map probe per key, then one
// sequential merge of the sorted misses against each run whose key range
// intersects them. Returns the ids of every key present in the index.
func (x *spillIndex) lookup(keys []string) (map[string]int, error) {
	out := make(map[string]int, len(keys))
	var misses []string
	for _, k := range keys {
		if id, ok := x.mem[k]; ok {
			out[k] = id
		} else {
			misses = append(misses, k)
		}
	}
	if len(misses) == 0 || len(x.runs) == 0 {
		return out, nil
	}
	sort.Strings(misses)
	uniq := misses[:1]
	for _, k := range misses[1:] {
		if k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	for _, run := range x.runs {
		if uniq[len(uniq)-1] < run.min || uniq[0] > run.max {
			continue
		}
		if err := run.scan(uniq, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scan merges the sorted probe list against the run's sorted records,
// recording every hit.
func (run spillRun) scan(probes []string, out map[string]int) error {
	f, err := os.Open(run.path)
	if err != nil {
		return fmt.Errorf("lts: reading spilled run: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	i := 0
	var keyBuf []byte
	for {
		klen, err := binary.ReadUvarint(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("lts: reading spilled run: %w", err)
		}
		if uint64(cap(keyBuf)) < klen {
			keyBuf = make([]byte, klen)
		}
		keyBuf = keyBuf[:klen]
		if _, err := io.ReadFull(r, keyBuf); err != nil {
			return fmt.Errorf("lts: reading spilled run: %w", err)
		}
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("lts: reading spilled run: %w", err)
		}
		key := string(keyBuf)
		for i < len(probes) && probes[i] < key {
			i++
		}
		if i >= len(probes) {
			return nil
		}
		if probes[i] == key {
			out[probes[i]] = int(id)
			i++
			if i >= len(probes) {
				return nil
			}
		}
	}
}

func (x *spillIndex) stats(into *SpillStats) {
	into.Runs = len(x.runs)
	into.SpilledBytes = x.spilledBytes
	into.PeakMemBytes = x.peak
}

// ExploreSourceSpill is ExploreSource with the budget-bounded visited index.
// It runs the same frontier-at-a-time BFS as ExploreSourceParallel (derive a
// level, resolve the targets, merge in frontier order), so state numbering
// is deterministic and matches the parallel explorer's; derivation itself is
// serial. The second result carries the spill statistics; it is non-nil even
// on error.
func ExploreSourceSpill(src StateSource, rootKey string, root any, lim Limits, cfg SpillConfig) (*Graph, *SpillStats, error) {
	stats := &SpillStats{}
	if cfg.StatsOnly && (lim.MaxDepth > 0 || lim.MaxObsDepth > 0) {
		return nil, stats, fmt.Errorf("lts: stats-only spill exploration supports the MaxStates limit only")
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = DefaultSpillBudget
	}
	dir, err := os.MkdirTemp(cfg.Dir, "lts-spill-")
	if err != nil {
		return nil, stats, fmt.Errorf("lts: creating spill dir: %w", err)
	}
	defer os.RemoveAll(dir)
	idx := newSpillIndex(dir, budget)
	defer idx.stats(stats)
	if cfg.StatsOnly {
		err := exploreSpillStats(src, rootKey, root, lim, idx, stats)
		return nil, stats, err
	}
	g, err := exploreSpillFull(src, rootKey, root, lim, idx, stats)
	return g, stats, err
}

// exploreSpillFull builds the full graph. The Graph's per-state arrays are
// retained (they are the result), but state payloads are dropped at
// expansion and the visited index spills past the budget. Graph.States keeps
// only the payloads of never-expanded states (nil elsewhere).
func exploreSpillFull(src StateSource, rootKey string, root any, lim Limits, idx *spillIndex, stats *SpillStats) (*Graph, error) {
	maxStates := lim.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	g := &Graph{Frontier: map[int]bool{}}
	pending := map[int]any{} // unexpanded state id -> payload
	obsDepth := []int{}
	expanded := []bool{}
	var addErr error
	add := func(key string, st any, depth, obs int) int {
		id := len(g.Keys)
		if err := idx.put(key, id); err != nil && addErr == nil {
			addErr = err
		}
		pending[id] = st
		g.Keys = append(g.Keys, key)
		g.Edges = append(g.Edges, nil)
		g.Depth = append(g.Depth, depth)
		obsDepth = append(obsDepth, obs)
		expanded = append(expanded, false)
		return id
	}
	add(rootKey, root, 0, 0)

	level := []int{0}
	for len(level) > 0 && addErr == nil {
		var next []int
		inNext := map[int]bool{}
		enqueue := func(id int) {
			if !inNext[id] {
				inNext[id] = true
				next = append(next, id)
			}
		}
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

		// Phase 1: split the level into states to expand and already-expanded
		// states whose improvements propagate through their cached edges.
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

		// Phase 2: derive the level's successors and resolve every target
		// key against the index in one batch.
		results := make([][]GenTransition, len(toExpand))
		var batchKeys []string
		for i, id := range toExpand {
			ts, err := src.Next(pending[id])
			if err != nil {
				return nil, fmt.Errorf("exploring state %d: %w", id, err)
			}
			results[i] = ts
			for _, t := range ts {
				batchKeys = append(batchKeys, t.Key)
			}
		}
		known, err := idx.lookup(batchKeys)
		if err != nil {
			return nil, err
		}

		// Phase 3: merge in frontier order — the deterministic numbering.
		// States added during this merge are tracked separately (the batch
		// lookup predates them).
		levelNew := map[string]int{}
		for i, head := range toExpand {
			expanded[head] = true
			delete(g.Frontier, head)
			delete(pending, head)
			g.Edges[head] = make([]Edge, 0, len(results[i]))
			stats.Transitions += int64(len(results[i]))
			for j := range results[i] {
				t := &results[i][j]
				nd := obsDepth[head]
				if t.Label.Observable() {
					nd++
				}
				id, ok := levelNew[t.Key]
				if !ok {
					id, ok = known[t.Key]
				}
				if ok {
					g.Edges[head] = append(g.Edges[head], Edge{Label: t.Label, To: id})
					relax(head, Edge{Label: t.Label, To: id})
					continue
				}
				if len(g.Keys) >= maxStates {
					g.Frontier[head] = true
					continue
				}
				to := add(t.Key, t.To, g.Depth[head]+1, nd)
				levelNew[t.Key] = to
				g.Edges[head] = append(g.Edges[head], Edge{Label: t.Label, To: to})
				enqueue(to)
			}
		}
		level = next
	}
	if addErr != nil {
		return nil, addErr
	}

	g.States = make([]lotos.Expr, len(g.Keys))
	for id, st := range pending {
		if e, ok := st.(lotos.Expr); ok {
			g.States[id] = e
		}
	}
	g.ObsDepth = obsDepth
	g.Truncated = len(g.Frontier) > 0
	stats.States = int64(len(g.Keys))
	stats.Truncated = g.Truncated
	return g, nil
}

// exploreSpillStats runs the census: a level-synchronous BFS that retains
// only the bounded index, the current frontier's payloads, and counters.
func exploreSpillStats(src StateSource, rootKey string, root any, lim Limits, idx *spillIndex, stats *SpillStats) error {
	maxStates := lim.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	if err := idx.put(rootKey, 0); err != nil {
		return err
	}
	states := 1
	level := []any{root}
	for len(level) > 0 {
		results := make([][]GenTransition, len(level))
		var batchKeys []string
		for i, st := range level {
			ts, err := src.Next(st)
			if err != nil {
				return err
			}
			results[i] = ts
			stats.Transitions += int64(len(ts))
			for _, t := range ts {
				batchKeys = append(batchKeys, t.Key)
			}
		}
		level = nil
		known, err := idx.lookup(batchKeys)
		if err != nil {
			return err
		}
		levelNew := map[string]bool{}
		var next []any
		for _, ts := range results {
			for _, t := range ts {
				if _, ok := known[t.Key]; ok || levelNew[t.Key] {
					continue
				}
				if states >= maxStates {
					stats.Truncated = true
					continue
				}
				if err := idx.put(t.Key, states); err != nil {
					return err
				}
				levelNew[t.Key] = true
				states++
				next = append(next, t.To)
			}
		}
		level = next
	}
	stats.States = int64(states)
	return nil
}
