// Package fsm compiles derived protocol entities — the behaviour
// expressions PE_p produced by the derivation algorithm in internal/core —
// into table-driven finite state machines, so the concurrent runtime
// (internal/sim) can execute an entity by indexed array lookups instead of
// re-deriving SOS transitions from its syntax tree on every step.
//
// A compiled Machine carries two layers over one shared lts.LabelTable:
//
//   - The EXACT layer is the entity's explored labelled transition system
//     flattened into compressed-sparse-row int32 tables, with each state's
//     transitions in exactly the derivation order of lts.Env.Transitions.
//     This layer drives execution and counterexample replay: a runner
//     walking it is step-for-step and random-choice-for-random-choice
//     indistinguishable from the AST interpreter, and the transition
//     indices pinned by compose.Witness steps select the same transitions.
//
//   - The MINIMIZED layer is the weak-bisimulation quotient of the exact
//     layer (equiv.QuotientWeak), with each class's transitions sorted by
//     (label key, target class) — a canonical minimal form independent of
//     exploration order. It is the compact artifact reported by compile
//     statistics, and ClassOf maps every exact state into it.
//
// Entities whose state space exceeds the configured cap (the symptom of
// unbounded recursion, e.g. the anbn counter service) fail to compile with
// a structured *CompileError; callers fall back to the AST interpreter for
// those entities, so mixed fleets work.
package fsm

import (
	"fmt"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// Op is the dispatch kind of one compiled transition: what the runtime has
// to do to execute it. It refines lts.LabelKind with the runtime-relevant
// event distinctions (send vs receive vs service primitive, and the
// flushing receive semantics of interrupt-handshake control messages).
type Op uint8

const (
	// OpInternal is the unobservable internal action i.
	OpInternal Op = iota
	// OpDelta is successful termination δ.
	OpDelta
	// OpSend emits a synchronization message into the medium.
	OpSend
	// OpRecv consumes the head of a FIFO channel.
	OpRecv
	// OpRecvFlush consumes a message from anywhere in its channel,
	// discarding everything queued before it (interrupt-handshake control
	// messages, see core.FlushingMsgID).
	OpRecvFlush
	// OpService offers a service primitive to the local user.
	OpService
)

// String renders the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpInternal:
		return "internal"
	case OpDelta:
		return "delta"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpRecvFlush:
		return "recv-flush"
	case OpService:
		return "service"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// StateFlags summarizes which dispatch classes a state's transition row
// contains, so the runtime can skip work (e.g. a state with only service
// offers never scans for executable candidates).
type StateFlags uint8

const (
	// HasDelta marks a state with a successful-termination transition.
	HasDelta StateFlags = 1 << iota
	// HasInternal marks a state with an internal transition.
	HasInternal
	// HasSend marks a state with a send transition.
	HasSend
	// HasRecv marks a state with a receive (plain or flushing) transition.
	HasRecv
	// HasService marks a state with a service-primitive offer.
	HasService
)

// Machine is one compiled protocol entity. All slices are immutable after
// compilation; a Machine is safe for concurrent use by any number of
// runners.
//
// Exact layer: state s's transitions are the parallel entries
// Ops/Events/Labels/To in [Off[s], Off[s+1]), in derivation order. State 0
// is the initial state.
//
// Minimized layer: class c's transitions are MinOps/MinEvents/MinLabels/
// MinTo in [MinOff[c], MinOff[c+1]), sorted by (label key, target class).
// ClassOf[s] is the class of exact state s; ClassOf[0] is always 0.
type Machine struct {
	// Place is the entity's protocol place (0 when compiled standalone).
	Place int
	// Table interns the labels of both layers (shared across a Fleet).
	Table *lts.LabelTable

	// Off/Ops/Events/Labels/To are the exact transition tables.
	Off    []int32
	Ops    []Op
	Events []lotos.Event
	Labels []lts.LabelID
	To     []int32
	// Keys holds the canonical expression key of each exact state
	// (diagnostics: blocked-state reporting renders Keys[current]).
	Keys []string
	// Flags summarizes each exact state's dispatch classes.
	Flags []StateFlags

	// OfferOff/OfferEvents/OfferEdge are the service-primitive dispatch
	// rows: state s offers OfferEvents[OfferOff[s]:OfferOff[s+1]] to its
	// user, and OfferEdge maps each offer back to its exact edge index.
	OfferOff    []int32
	OfferEvents []lotos.Event
	OfferEdge   []int32

	// ClassOf, MinOff, MinOps, MinEvents, MinLabels, MinTo, MinKeys are the
	// minimized layer.
	ClassOf   []int32
	MinOff    []int32
	MinOps    []Op
	MinEvents []lotos.Event
	MinLabels []lts.LabelID
	MinTo     []int32
	MinKeys   []string
}

// NumStates returns the exact layer's state count.
func (m *Machine) NumStates() int { return len(m.Off) - 1 }

// NumTransitions returns the exact layer's transition count.
func (m *Machine) NumTransitions() int { return len(m.Ops) }

// MinStates returns the minimized layer's state count (the number of weak-
// bisimilarity classes of the entity behaviour).
func (m *Machine) MinStates() int { return len(m.MinOff) - 1 }

// MinTransitions returns the minimized layer's transition count.
func (m *Machine) MinTransitions() int { return len(m.MinTo) }

// Row returns the exact edge index range of state s.
func (m *Machine) Row(s int32) (lo, hi int32) { return m.Off[s], m.Off[s+1] }

// Offers returns state s's service-primitive offers (shared slice — callers
// must not mutate) and the parallel exact edge indices.
func (m *Machine) Offers(s int32) ([]lotos.Event, []int32) {
	lo, hi := m.OfferOff[s], m.OfferOff[s+1]
	return m.OfferEvents[lo:hi], m.OfferEdge[lo:hi]
}

// Graph reconstructs the exact layer as an lts.Graph over the machine's
// label table (state expressions are not retained by compilation, so
// States is nil; Keys and edges are faithful). Used by equivalence checks
// and graph reporting.
func (m *Machine) Graph() *lts.Graph {
	return tableGraph(m.Table, m.Keys, m.Off, m.Labels, m.To)
}

// MinGraph reconstructs the minimized layer as an lts.Graph.
func (m *Machine) MinGraph() *lts.Graph {
	return tableGraph(m.Table, m.MinKeys, m.MinOff, m.MinLabels, m.MinTo)
}

// tableGraph builds the graph of one table layer: state s's edges are the
// parallel labels/to entries in [off[s], off[s+1]).
func tableGraph(table *lts.LabelTable, keys []string, off []int32, labels []lts.LabelID, to []int32) *lts.Graph {
	n := len(off) - 1
	g := lts.NewGraph(n, table)
	copy(g.Keys, keys)
	es := make([]lts.Edge, 0, len(to))
	for e := range to {
		es = append(es, lts.Edge{Label: labels[e], To: to[e]})
	}
	for s := 0; s < n; s++ {
		g.SetOut(s, es[off[s]:off[s+1]]...)
	}
	return g
}

// CompileError reports that one entity's behaviour could not be compiled —
// its reachable state space exceeded the cap (unbounded recursion), or
// transition derivation itself failed. Callers are expected to fall back to
// the AST interpreter for the affected entity.
type CompileError struct {
	// Place is the entity's protocol place.
	Place int
	// States is the number of states explored when compilation stopped.
	States int
	// Cap is the state cap compilation ran with (0 when the failure was not
	// a cap overflow).
	Cap int
	// Reason describes the failure.
	Reason string

	err error // underlying cause, for Unwrap (nil for cap overflows)
}

// Error implements the error interface.
func (e *CompileError) Error() string {
	return fmt.Sprintf("fsm: entity %d: %s", e.Place, e.Reason)
}

// Unwrap returns the underlying error (nil for cap overflows).
func (e *CompileError) Unwrap() error { return e.err }
