package lts

// The service monitor: the weak-trace automaton of a specification, built
// by Subsets over an on-demand derivation rather than over an explored
// graph. A state is derived the first time a τ-closure reaches it, and
// determinized nodes persist across traces, so a monitor that has answered
// one trace answers its prefixes and siblings from memory. No depth bound
// is involved: every answer is exact, recursive services included.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/lotos"
)

// ErrStateBudget is wrapped by the error of a trace check whose service
// states did not fit its state budget. It is not a verdict: the trace may
// or may not be a service trace.
var ErrStateBudget = errors.New("lts: state budget exhausted")

// lazyStates derives the states of a specification on demand. Its graph
// holds the States and edges of every state reached so far; a state's edges
// are valid once derived. States are identified by lotos.Canon, as under
// Explore, so they are the explorer's states.
type lazyStates struct {
	env     *Env
	g       *Graph
	index   map[string]int32
	derived []bool
	// limit is the number of states the graph may grow to.
	limit int
}

// intern adds a state known to be absent.
func (l *lazyStates) intern(key string, e lotos.Expr) int32 {
	id := int32(l.g.addState())
	l.index[key] = id
	l.g.States = append(l.g.States, e)
	l.derived = append(l.derived, false)
	return id
}

// derive computes state st's transitions and interns their targets. When
// the targets would grow the graph past the limit it fails with
// ErrStateBudget and changes nothing.
func (l *lazyStates) derive(st int32) error {
	e := l.g.States[st]
	ts, err := l.env.Transitions(e)
	if err != nil {
		return fmt.Errorf("state %s: %w", lotos.Format(e), err)
	}
	keys := make([]string, len(ts))
	fresh := 0
	for i, t := range ts {
		keys[i] = lotos.Canon(t.To)
		if _, seen := l.index[keys[i]]; !seen && !slices.Contains(keys[:i], keys[i]) {
			fresh++
		}
	}
	if l.g.NumStates()+fresh > l.limit {
		return fmt.Errorf("%w: the check needs more than %d states", ErrStateBudget, l.limit)
	}
	lo := int32(len(l.g.arena))
	for i, t := range ts {
		to, seen := l.index[keys[i]]
		if !seen {
			to = l.intern(keys[i], t.To)
		}
		l.g.arena = append(l.g.arena, Edge{Label: l.g.Table.Intern(t.Label), To: to})
	}
	l.g.spans[st] = span{lo, int32(len(l.g.arena))}
	l.g.States[st] = nil // a derived state is never derived again
	l.derived[st] = true
	return nil
}

// Monitor answers weak-trace questions about one service. It owns a private
// clone of the service, derives a state only the first time a trace needs
// its successors, and keeps every derived state and determinized node for
// later traces. It is safe for concurrent use; checks on one monitor run
// one at a time.
type Monitor struct {
	mu  sync.Mutex
	sub *Subsets
}

// NewMonitor builds the monitor of a service. Nothing is derived yet.
func NewMonitor(service *lotos.Spec) (*Monitor, error) {
	sp := lotos.CloneSpec(service)
	env, err := EnvFor(sp)
	if err != nil {
		return nil, err
	}
	src := &lazyStates{env: env, g: &Graph{Table: NewLabelTable()}, index: map[string]int32{}}
	src.intern(lotos.Canon(sp.Root.Expr), sp.Root.Expr)
	return &Monitor{sub: newSubsets(src.g, src)}, nil
}

// TraceVerdict is a monitor's answer for one trace.
type TraceVerdict struct {
	// Accepted reports that the trace is a weak trace of the service.
	Accepted bool
	// Terminates reports that the trace extended by δ is one too: the
	// service can terminate successfully after it.
	Terminates bool
}

// Check answers one trace, given as rendered labels (Label.String; δ is
// "delta"). The monitor may hold at most maxStates states (0 selects
// DefaultMaxStates); a check that needs more fails with an error wrapping
// ErrStateBudget, and the states derived before the failure are kept.
func (m *Monitor) Check(trace []string, maxStates int) (TraceVerdict, error) {
	v, _, err := m.check(trace, maxStates)
	return v, err
}

// check is Check that also reports whether the monitor held nothing but
// its initial state when the check began, so that a budget failure is the
// trace's own and not the residue of earlier checks.
func (m *Monitor) check(trace []string, maxStates int) (v TraceVerdict, fresh bool, err error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sub
	fresh = s.g.NumStates() == 1
	if s.g.NumStates() > maxStates {
		return v, fresh, fmt.Errorf("%w: the monitor holds %d states, more than %d", ErrStateBudget, s.g.NumStates(), maxStates)
	}
	s.src.limit = maxStates
	if len(s.succ) == 0 {
		if err := s.start(); err != nil {
			return v, fresh, err
		}
	}
	n := int32(0)
	for _, label := range trace {
		if n, err = s.next(n, label); err != nil || n < 0 {
			return v, fresh, err
		}
	}
	v.Accepted = true
	n, err = s.next(n, "delta")
	v.Terminates = n >= 0
	return v, fresh, err
}

// CheckServiceTrace answers one trace against a service through the
// monitor cache: services with the same content share one monitor, however
// many copies of the spec the callers hold. The budget applies to each
// check on its own: when the shared monitor, grown by earlier checks, would
// exceed maxStates, the check reruns on a fresh monitor, which then takes
// the shared one's place, and only the fresh monitor's overflow is
// reported. A verdict therefore never depends on which checks ran before.
func CheckServiceTrace(service *lotos.Spec, trace []string, maxStates int) (TraceVerdict, error) {
	key := specDigest(service)
	m := monitors.get(key)
	if m == nil {
		var err error
		if m, err = NewMonitor(service); err != nil {
			return TraceVerdict{}, err
		}
		monitors.put(key, m)
	}
	v, fresh, err := m.check(trace, maxStates)
	if errors.Is(err, ErrStateBudget) && !fresh {
		if m, err = NewMonitor(service); err != nil {
			return TraceVerdict{}, err
		}
		v, _, err = m.check(trace, maxStates)
		monitors.put(key, m)
	}
	return v, err
}

// specDigest is the content address of a service: the SHA-256 of its
// printed form, which fixes every label a service primitive renders to.
// Message events render occurrence paths built from process-reference node
// numbers, which the printed form omits, so a spec with message events
// digests its canonical forms, node numbers included, as well.
func specDigest(sp *lotos.Spec) [sha256.Size]byte {
	h := sha256.New()
	io.WriteString(h, sp.String())
	messages := false
	lotos.WalkSpec(sp, func(e lotos.Expr) {
		if p, ok := e.(*lotos.Prefix); ok && p.Ev.IsMessage() {
			messages = true
		}
	})
	if messages {
		writeCanonBlock(h, sp.Root)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// writeCanonBlock writes a block's canonical forms, nested blocks included.
func writeCanonBlock(w io.Writer, blk *lotos.DefBlock) {
	io.WriteString(w, lotos.Canon(blk.Expr)+"\n")
	for _, pd := range blk.Procs {
		io.WriteString(w, "PROC "+pd.Name+"\n")
		writeCanonBlock(w, pd.Body)
	}
	io.WriteString(w, "END\n")
}

// monitorCacheSize bounds the monitors CheckServiceTrace keeps. A process
// checks traces against a handful of services (one per fleet class or
// deployment), and an evicted monitor only costs its rebuilding.
const monitorCacheSize = 16

// monitors is the process-wide monitor cache. It is package state because
// sim.CheckTrace and conformance.Check keep signatures that take a spec,
// not a monitor.
var monitors = monitorCache{byKey: map[[sha256.Size]byte]*Monitor{}}

type monitorCache struct {
	mu    sync.Mutex
	byKey map[[sha256.Size]byte]*Monitor
	lru   [][sha256.Size]byte // least recently used first
}

// get returns the monitor cached under key, or nil.
func (c *monitorCache) get(key [sha256.Size]byte) *Monitor {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.byKey[key]
	if m != nil {
		c.touch(key)
	}
	return m
}

// put caches m under key, replacing any monitor there and evicting the
// least recently used one beyond the bound.
func (c *monitorCache) put(key [sha256.Size]byte, m *Monitor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[key]; ok {
		c.touch(key)
	} else {
		c.lru = append(c.lru, key)
	}
	c.byKey[key] = m
	if len(c.lru) > monitorCacheSize {
		delete(c.byKey, c.lru[0])
		c.lru = slices.Delete(c.lru, 0, 1)
	}
}

// touch moves key to the most recently used end.
func (c *monitorCache) touch(key [sha256.Size]byte) {
	i := slices.Index(c.lru, key)
	c.lru = append(slices.Delete(c.lru, i, i+1), key)
}
