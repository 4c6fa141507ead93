package lts

import (
	"fmt"
	"slices"
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

// Explore builds the reachable transition graph of root under env, up to the
// limits. Exploration is breadth-first, so Depth is the shortest transition
// distance from the initial state. When MaxObsDepth is set, states are
// (re-)expanded whenever a path with fewer observable steps reaches them, so
// the observable-depth accounting is exact.
func Explore(env *Env, root lotos.Expr, lim Limits) (*Graph, error) {
	return exploreExpr(env, NewLabelTable(), root, lim)
}

func exploreExpr(env *Env, table *LabelTable, root lotos.Expr, lim Limits) (*Graph, error) {
	g, _, err := explore(&exprSource{env: env, table: table}, lotos.Canon(root), State{Val: root}, lim, 1, mapIndex{})
	return g, err
}

// ExploreSpec resolves and explores a complete specification.
func ExploreSpec(sp *lotos.Spec, lim Limits) (*Graph, error) {
	return ExploreSpecWith(sp, NewLabelTable(), lim)
}

// ExploreSpecWith is ExploreSpec interning the graph's labels into table,
// so that the graph shares its label ids with the table's other graphs.
func ExploreSpecWith(sp *lotos.Spec, table *LabelTable, lim Limits) (*Graph, error) {
	env, err := EnvFor(sp)
	if err != nil {
		return nil, err
	}
	return exploreExpr(env, table, sp.Root.Expr, lim)
}

// State is a state's payload as a StateSource handles it: packed words (the
// product states of internal/compose), an opaque value (the expressions of
// the SOS semantics), or both. Either every state of a source carries a
// value or none does.
type State struct {
	Words []int32
	Val   any
}

// StateSource abstracts a transition system for the explorer: the lts SOS
// semantics here, and the entity×medium product in internal/compose.
type StateSource interface {
	// Labels returns the table the source interns its transition labels in;
	// it becomes the explored graph's Table.
	Labels() *LabelTable
	// Next derives the transitions of a state, in order, into out: each
	// one's label, target key and target payload. With more than one
	// worker, Next is called concurrently, each caller with its own out.
	Next(st State, out *Successors) error
}

// Successors is the buffer a StateSource writes derived transitions into.
// The explorer owns one per worker and reuses it across levels, so emitting
// a transition copies its key and payload into memory that is already
// there; the explorer copies them out only for a target it has not seen.
type Successors struct {
	labels  []LabelID
	keys    []byte
	keyEnd  []int32
	words   []int32
	wordEnd []int32
	vals    []any // empty for a source without values
}

// Emit appends a transition whose target payload is packed words. key and
// words are copied; the caller may reuse them.
func (b *Successors) Emit(label LabelID, key []byte, words []int32) {
	b.labels = append(b.labels, label)
	b.keys = append(b.keys, key...)
	b.keyEnd = append(b.keyEnd, int32(len(b.keys)))
	b.words = append(b.words, words...)
	b.wordEnd = append(b.wordEnd, int32(len(b.words)))
}

// EmitValue appends a transition whose target payload is an opaque value.
func (b *Successors) EmitValue(label LabelID, key string, val any) {
	b.labels = append(b.labels, label)
	b.keys = append(b.keys, key...)
	b.keyEnd = append(b.keyEnd, int32(len(b.keys)))
	b.wordEnd = append(b.wordEnd, int32(len(b.words)))
	b.vals = append(b.vals, val)
}

// Len returns the number of transitions in the buffer.
func (b *Successors) Len() int { return len(b.labels) }

// Label returns transition i's label.
func (b *Successors) Label(i int) LabelID { return b.labels[i] }

// Key returns transition i's target key. It aliases the buffer.
func (b *Successors) Key(i int) []byte {
	lo := int32(0)
	if i > 0 {
		lo = b.keyEnd[i-1]
	}
	return b.keys[lo:b.keyEnd[i]]
}

// State returns transition i's target payload. Its words alias the buffer.
func (b *Successors) State(i int) State {
	lo := int32(0)
	if i > 0 {
		lo = b.wordEnd[i-1]
	}
	st := State{Words: b.words[lo:b.wordEnd[i]]}
	if len(b.vals) > 0 {
		st.Val = b.vals[i]
	}
	return st
}

// Reset empties the buffer, keeping its memory.
func (b *Successors) Reset() {
	clear(b.vals)
	b.labels, b.keys, b.keyEnd = b.labels[:0], b.keys[:0], b.keyEnd[:0]
	b.words, b.wordEnd, b.vals = b.words[:0], b.wordEnd[:0], b.vals[:0]
}

// exprSource explores expressions under an SOS environment. Next is safe
// for concurrent use: the environment memoizes process instantiations in a
// map and the label table is not safe for concurrent interning, so
// derivations are serialized.
type exprSource struct {
	env   *Env
	table *LabelTable
	mu    sync.Mutex
}

func (s *exprSource) Labels() *LabelTable { return s.table }

func (s *exprSource) Next(st State, out *Successors) error {
	e := st.Val.(lotos.Expr)
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, err := s.env.Transitions(e)
	if err != nil {
		return fmt.Errorf("state %s: %w", lotos.Format(e), err)
	}
	for _, t := range ts {
		out.EmitValue(s.table.Intern(t.Label), lotos.Canon(t.To), t.To)
	}
	return nil
}

// ExploreSource runs the bounded exploration over any StateSource; the
// resulting Graph's States hold the source's state values where they are
// lotos.Expr (as under Explore), and are nil when none is.
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
func ExploreSource(src StateSource, rootKey string, root State, lim Limits, workers int, spill *SpillConfig) (*Graph, *SpillStats, error) {
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
	resolve(level *derivedLevel) error
	// get returns the id of a key added before the level or during its
	// merge. It does not allocate.
	get(key []byte) (int, bool)
	// put adds a key known to be absent.
	put(key string, id int) error
}

// mapIndex is the in-memory visited index.
type mapIndex map[string]int32

func (mapIndex) resolve(*derivedLevel) error { return nil }

func (m mapIndex) get(key []byte) (int, bool) {
	id, ok := m[string(key)]
	return int(id), ok
}

func (m mapIndex) put(key string, id int) error {
	m[key] = int32(id)
	return nil
}

// derivedLevel holds the transitions of one BFS level: those of payload i
// are entries [lo[i], hi[i]) of bufs[owner[i]]. The buffers, one per
// worker, are reused from level to level.
type derivedLevel struct {
	bufs   []*Successors
	owner  []int32
	lo, hi []int32
}

// reset prepares the level for n payloads derived on the given number of
// workers.
func (d *derivedLevel) reset(n, workers int) {
	for len(d.bufs) < workers {
		d.bufs = append(d.bufs, new(Successors))
	}
	for _, b := range d.bufs {
		b.Reset()
	}
	d.owner = slices.Grow(d.owner[:0], n)[:n]
	d.lo = slices.Grow(d.lo[:0], n)[:n]
	d.hi = slices.Grow(d.hi[:0], n)[:n]
}

// explore is the level-synchronous BFS behind every exploration. Each level
// runs in three steps: gate its states on MaxDepth and MaxObsDepth (a gated
// state joins the frontier, and an already-expanded state re-queued by a
// depth improvement propagates it through its cached edges); derive the
// successors of the remaining states (deriveAll); then merge the derived
// transitions serially, in frontier order. Only the merge writes the index
// and numbers new states, so neither the worker count nor the index changes
// the graph. A target already visited costs its edge only; a new one's key
// and payload are copied out of the derivation buffer. capped reports that
// MaxStates refused at least one new state.
func explore(src StateSource, rootKey string, root State, lim Limits, workers int, idx visitedIndex) (g *Graph, capped bool, err error) {
	maxStates := lim.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	g = &Graph{Table: src.Labels()}
	table := g.Table
	var (
		// The payload of state id: words[id], a view into a payload chunk,
		// and vals[id] when the source has values.
		words            [][]int32
		vals             []any
		hasVals          = root.Val != nil
		chunk            []int32
		expanded, queued []bool
		next             []int
	)
	// add numbers a new state, copying its payload words into the current
	// payload chunk: a chunk serves many states, and is freed once every
	// state viewing it has been expanded.
	add := func(key string, st State, depth, obs int) (int, error) {
		id := g.addState()
		if err := idx.put(key, id); err != nil {
			return 0, err
		}
		if len(st.Words) > cap(chunk)-len(chunk) {
			chunk = make([]int32, 0, max(payloadChunk, len(st.Words)))
		}
		lo := len(chunk)
		chunk = append(chunk, st.Words...)
		words = grow(words, chunk[lo:len(chunk):len(chunk)])
		if hasVals {
			vals = grow(vals, st.Val)
		}
		g.Keys = grow(g.Keys, key)
		g.Depth = grow(g.Depth, depth)
		g.ObsDepth = grow(g.ObsDepth, obs)
		expanded = grow(expanded, false)
		queued = grow(queued, false)
		return id, nil
	}
	payload := func(id int) State {
		st := State{Words: words[id]}
		if hasVals {
			st.Val = vals[id]
		}
		return st
	}
	enqueue := func(id int) {
		if !queued[id] {
			queued[id] = true
			next = append(next, id)
		}
	}
	// relax pushes head's depths through one edge. Depth must be relaxed
	// alongside ObsDepth: a state re-queued with a shorter transition
	// distance would otherwise leave stale Depth values behind for the
	// MaxDepth gate to read.
	relax := func(head int, e Edge) {
		to := int(e.To)
		nd := g.ObsDepth[head]
		if table.Observable(e.Label) {
			nd++
		}
		improved := false
		if nd < g.ObsDepth[to] {
			g.ObsDepth[to] = nd
			improved = true
		}
		if d := g.Depth[head] + 1; d < g.Depth[to] {
			g.Depth[to] = d
			improved = true
		}
		if improved {
			enqueue(to)
		}
	}

	if _, err := add(rootKey, root, 0, 0); err != nil {
		return nil, false, err
	}
	var (
		level    = []int{0}
		toExpand []int
		payloads []State
		derived  derivedLevel
	)
	for len(level) > 0 {
		next = next[:0]
		toExpand = toExpand[:0]
		for _, id := range level {
			queued[id] = false
		}
		for _, id := range level {
			switch {
			case expanded[id]:
				for _, e := range g.Out(id) {
					relax(id, e)
				}
			case lim.MaxDepth > 0 && g.Depth[id] >= lim.MaxDepth,
				lim.MaxObsDepth > 0 && g.ObsDepth[id] >= lim.MaxObsDepth:
				g.SetFrontier(id, true)
			default:
				toExpand = append(toExpand, id)
			}
		}

		payloads = payloads[:0]
		for _, id := range toExpand {
			payloads = append(payloads, payload(id))
		}
		failed, err := deriveAll(src, payloads, workers, &derived)
		clear(payloads)
		if err != nil {
			return nil, false, fmt.Errorf("exploring state %d: %w", toExpand[failed], err)
		}
		if err := idx.resolve(&derived); err != nil {
			return nil, false, err
		}

		for i, head := range toExpand {
			expanded[head] = true
			// An expanded state is never derived again — depth improvements
			// propagate through its edges — so only an expression payload,
			// which Graph.States reports, is kept.
			words[head] = nil
			if hasVals {
				if _, ok := vals[head].(lotos.Expr); !ok {
					vals[head] = nil
				}
			}
			g.SetFrontier(head, false)
			buf := derived.bufs[derived.owner[i]]
			lo := int32(len(g.arena))
			for j := int(derived.lo[i]); j < int(derived.hi[i]); j++ {
				label := buf.Label(j)
				if id, ok := idx.get(buf.Key(j)); ok {
					e := Edge{Label: label, To: int32(id)}
					g.arena = grow(g.arena, e)
					relax(head, e)
					continue
				}
				if g.NumStates() >= maxStates {
					capped = true
					g.SetFrontier(head, true)
					continue
				}
				nd := g.ObsDepth[head]
				if table.Observable(label) {
					nd++
				}
				to, err := add(string(buf.Key(j)), buf.State(j), g.Depth[head]+1, nd)
				if err != nil {
					return nil, false, err
				}
				g.arena = grow(g.arena, Edge{Label: label, To: int32(to)})
				enqueue(to)
			}
			g.spans[head] = span{lo, int32(len(g.arena))}
		}
		level, next = next, level
	}

	for i, v := range vals {
		if e, ok := v.(lotos.Expr); ok {
			if g.States == nil {
				g.States = make([]lotos.Expr, g.NumStates())
			}
			g.States[i] = e
		}
	}
	g.Truncated = slices.ContainsFunc(g.frontier, func(w uint64) bool { return w != 0 })
	return g, capped, nil
}

// payloadChunk is the size, in words, of the chunks the explorer copies new
// states' payload words into.
const payloadChunk = 4096

// grow appends v to s, doubling the capacity when s is full. The explorer's
// per-state and per-edge arrays grow to sizes unknown in advance; doubling
// allocates and copies about half the bytes that append's gentler growth of
// large slices does.
func grow[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 64))
	}
	return append(s, v)
}

// deriveAll derives the successors of every payload into the level's
// buffers, inline when workers <= 1 and otherwise on a pool of goroutines
// that claim payloads through an atomic cursor, each writing its own
// buffer. On failure it returns the index of the first failing payload in
// order: a worker claims a payload only while no derivation has failed and
// derives every payload it claims, so every payload before a failing one
// has been derived.
func deriveAll(src StateSource, payloads []State, workers int, d *derivedLevel) (int, error) {
	workers = max(min(workers, len(payloads)), 1)
	d.reset(len(payloads), workers)
	if workers == 1 {
		buf := d.bufs[0]
		for i, st := range payloads {
			d.lo[i] = int32(buf.Len())
			if err := src.Next(st, buf); err != nil {
				return i, err
			}
			d.hi[i] = int32(buf.Len())
			d.owner[i] = 0
		}
		return 0, nil
	}
	errs := make([]error, len(payloads))
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(buf *Successors) {
			defer wg.Done()
			for !failed.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(payloads) {
					return
				}
				d.lo[i] = int32(buf.Len())
				if errs[i] = src.Next(payloads[i], buf); errs[i] != nil {
					failed.Store(true)
				}
				d.hi[i] = int32(buf.Len())
				d.owner[i] = int32(k)
			}
		}(d.bufs[k])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return 0, nil
}
