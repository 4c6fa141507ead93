package lts

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// Disk-spilling exploration.
//
// The in-memory index holds every key -> state id pair in one map, so the
// reachable state count is bounded by RAM. The spilling index bounds it
// instead: entries accumulate in a small map and, whenever its estimated
// footprint crosses a byte budget, are written out as a sorted run file.
// Because a key is only ever inserted after a lookup missed, the in-memory
// map and every run hold pairwise-disjoint key sets, and a lookup is a map
// probe plus one sequential merge against each run. The explorer resolves
// a whole derived level at once, so each level pays one linear pass over
// the spilled runs regardless of how many keys it resolves.
//
// State payloads are dropped once a state has been expanded (an expanded
// state is never re-derived — depth improvements propagate through its
// cached edges), so the working set is the byte budget plus the per-state
// graph arrays and the unexpanded frontier.

// DefaultSpillBudget is the default in-memory budget of the spilling index
// (bytes).
const DefaultSpillBudget = 64 << 20

// SpillConfig tunes the disk-spilling visited index.
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

// SpillStats reports what a spilling exploration did.
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
	// Truncated reports that MaxStates refused at least one state. A graph
	// cut only by MaxDepth or MaxObsDepth is Graph.Truncated but not this.
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

	mem      map[string]int32
	memBytes int64
	peak     int64

	runs         []spillRun
	spilledBytes int64

	// known holds the ids of the keys put since the current level was
	// resolved, which a flush may have moved out of mem.
	known map[string]int32
	// probes are the current level's target keys, sorted and deduplicated;
	// they alias the level's derivation buffers. hits[i] is the id of
	// probes[i] found in mem or a run when the level was resolved, or -1.
	probes [][]byte
	hits   []int32
}

func newSpillIndex(dir string, budget int64) *spillIndex {
	return &spillIndex{dir: dir, budget: budget, mem: map[string]int32{}, known: map[string]int32{}}
}

func (x *spillIndex) get(key []byte) (int, bool) {
	if id, ok := x.known[string(key)]; ok {
		return int(id), true
	}
	if i, ok := slices.BinarySearchFunc(x.probes, key, bytes.Compare); ok && x.hits[i] >= 0 {
		return int(x.hits[i]), true
	}
	return 0, false
}

// put inserts a key known to be absent from the index, spilling a run when
// the in-memory footprint crosses the budget.
func (x *spillIndex) put(key string, id int) error {
	x.known[key] = int32(id)
	x.mem[key] = int32(id)
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
	x.mem = map[string]int32{}
	x.memBytes = 0
	return nil
}

// resolve looks up a level's target keys in one pass: a map probe per key,
// then one sequential merge of the sorted misses against each run whose key
// range intersects them. Every target key becomes a probe, those found in
// memory included: a flush during the merge may move them to disk.
func (x *spillIndex) resolve(level *derivedLevel) error {
	clear(x.known)
	probes := x.probes[:0]
	for _, buf := range level.bufs {
		for j := 0; j < buf.Len(); j++ {
			probes = append(probes, buf.Key(j))
		}
	}
	slices.SortFunc(probes, bytes.Compare)
	probes = slices.CompactFunc(probes, bytes.Equal)
	x.probes = probes
	x.hits = slices.Grow(x.hits[:0], len(probes))[:len(probes)]
	var lo, hi []byte // the least and greatest miss
	for i, key := range probes {
		id, ok := x.mem[string(key)]
		if !ok {
			id = -1
			if lo == nil {
				lo = key
			}
			hi = key
		}
		x.hits[i] = id
	}
	if lo == nil {
		return nil
	}
	for _, run := range x.runs {
		if string(hi) < run.min || string(lo) > run.max {
			continue
		}
		if err := run.scan(probes, x.hits); err != nil {
			return err
		}
	}
	return nil
}

// scan merges the sorted probe list against the run's sorted records,
// recording the id of every hit in hits. A probe found in memory has no
// record on disk.
func (run spillRun) scan(probes [][]byte, hits []int32) error {
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
		for i < len(probes) && bytes.Compare(probes[i], keyBuf) < 0 {
			i++
		}
		if i >= len(probes) {
			return nil
		}
		if bytes.Equal(probes[i], keyBuf) {
			hits[i] = int32(id)
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

// exploreSpill runs an exploration over the budget-bounded index in a
// temporary directory that it removes on return. The statistics are
// non-nil even on error.
func exploreSpill(src StateSource, rootKey string, root State, lim Limits, workers int, cfg SpillConfig) (*Graph, *SpillStats, error) {
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
		return nil, stats, exploreSpillStats(src, rootKey, root, lim, workers, idx, stats)
	}
	g, capped, err := explore(src, rootKey, root, lim, workers, idx)
	if err != nil {
		return nil, stats, err
	}
	stats.States = int64(g.NumStates())
	stats.Transitions = int64(g.NumTransitions())
	stats.Truncated = capped
	return g, stats, nil
}

// exploreSpillStats runs the census: a level-synchronous BFS that retains
// only the bounded index, the current level's payloads, and counters.
func exploreSpillStats(src StateSource, rootKey string, root State, lim Limits, workers int, idx *spillIndex, stats *SpillStats) error {
	maxStates := lim.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	if err := idx.put(rootKey, 0); err != nil {
		return err
	}
	states := 1
	var (
		level   = []State{root}
		next    []State
		derived derivedLevel
	)
	for len(level) > 0 {
		if _, err := deriveAll(src, level, workers, &derived); err != nil {
			return err
		}
		if err := idx.resolve(&derived); err != nil {
			return err
		}
		next = next[:0]
		for i := range level {
			buf := derived.bufs[derived.owner[i]]
			for j := int(derived.lo[i]); j < int(derived.hi[i]); j++ {
				stats.Transitions++
				key := buf.Key(j)
				if _, ok := idx.get(key); ok {
					continue
				}
				if states >= maxStates {
					stats.Truncated = true
					continue
				}
				if err := idx.put(string(key), states); err != nil {
					return err
				}
				states++
				st := buf.State(j)
				st.Words = slices.Clone(st.Words)
				next = append(next, st)
			}
		}
		clear(level)
		level, next = next, level
	}
	stats.States = int64(states)
	return nil
}
