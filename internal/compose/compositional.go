// Quotient-before-compose: the compositional verification path.
//
// The monolithic path explores the product of the entities' full local
// state spaces. But the product construction factors through the entity
// LTSs, and weak bisimilarity is a congruence for every operator the
// product applies — parallel composition with synchronization on the
// message gates and on δ, and hiding of the message interactions. Replacing
// each entity LTS with its weak-bisimulation quotient (equiv.QuotientWeak,
// message events kept observable) therefore yields a product that is
// weakly bisimilar to the monolithic one: every verdict the report derives
// from weak equivalence — the bisimulation check against the service, the
// bounded weak-trace comparison — is identical, over a state space that is
// often dramatically smaller (recursive entities in particular explore one
// state per syntactic unfolding, which the quotient collapses).
//
// Deadlock detection survives the quotient in the direction that matters:
// a monolithic deadlock projects to a quotient-product deadlock (a
// deadlocked global state enables no entity move, so every entity offers
// only blocked sends/receives; its class offers exactly the same labels,
// blocked by the same channel contents). The converse can fail in theory —
// the weak quotient maps a τ-divergent entity state to a deadlocked class —
// so a non-conformant compositional verdict is always re-verified
// monolithically (see verify.go), which also reproduces the monolithic
// counterexample byte for byte. A spurious compositional deadlock costs
// time, never correctness.
package compose

import (
	"fmt"
	"time"

	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// EntityLTS is one derived entity's behaviour, explored to closure and
// minimized with the weak-bisimulation quotient — the per-entity artifact
// the compositional product composes over, and the unit the daemon's
// content-addressed artifact cache stores (two specifications sharing one
// normalized entity share this work).
type EntityLTS struct {
	// Place is the entity's protocol place.
	Place int
	// Quotient is the weak-bisimulation quotient of the entity LTS, with
	// message events observable. State 0 is the initial class.
	Quotient *lts.Graph
	// ExactStates / ExactTransitions are the pre-quotient sizes.
	ExactStates      int
	ExactTransitions int
	// Truncated reports that entity exploration hit the state cap before
	// closure; the quotient is then unsound to compose over and the
	// verification falls back to the monolithic path.
	Truncated bool
	// BuildNanos is the wall time of exploration plus quotient.
	BuildNanos int64
	// Reused marks an artifact served from a provider's cache rather than
	// built for this call (set by caching providers, never by
	// BuildEntityLTS).
	Reused bool
}

// QuotientStates returns the minimized state count.
func (e *EntityLTS) QuotientStates() int { return e.Quotient.NumStates() }

// EntityProvider supplies the EntityLTS of one place — the injection point
// for content-addressed artifact caches layered above this package. The
// specification passed in is private to the call (already cloned); providers
// that build artifacts must still not retain it, because BuildEntityLTS
// explores its own clone precisely so cached artifacts alias nothing live.
type EntityProvider func(place int, sp *lotos.Spec, maxStates int) (*EntityLTS, error)

// BuildEntityLTS explores one entity's behaviour to closure (maxStates <= 0
// selects lts.DefaultMaxStates) and minimizes it with the weak-bisimulation
// quotient. The entity tree is cloned before exploration, so the returned
// artifact is immutable and safe to cache and share across goroutines.
func BuildEntityLTS(place int, sp *lotos.Spec, maxStates int) (*EntityLTS, error) {
	start := time.Now()
	if maxStates <= 0 {
		maxStates = lts.DefaultMaxStates
	}
	g, err := lts.ExploreSpec(lotos.CloneSpec(sp), lts.Limits{MaxStates: maxStates})
	if err != nil {
		return nil, fmt.Errorf("compose: exploring entity %d: %w", place, err)
	}
	out := &EntityLTS{
		Place:            place,
		ExactStates:      g.NumStates(),
		ExactTransitions: g.NumTransitions(),
		Truncated:        g.Truncated,
	}
	if g.Truncated {
		// The quotient of a truncated graph would merge frontier states on
		// their explored prefix only; composing over it is unsound. Leave
		// Quotient nil — the caller falls back to the monolithic path.
		out.BuildNanos = time.Since(start).Nanoseconds()
		return out, nil
	}
	out.Quotient = equiv.QuotientWeak(g)
	out.BuildNanos = time.Since(start).Nanoseconds()
	return out, nil
}

// NewCompositional prepares a product system over pre-quotiented entity
// behaviours: every local state table is preloaded from the quotient graphs
// (derived=true), so product exploration never touches the SOS interpreter.
// State keys stay content-derived — each local state contributes the digest
// of its class representative's canonical expression — so serial and
// parallel exploration agree on the key set exactly as in the monolithic
// system.
func NewCompositional(entities map[int]*lotos.Spec, ltss map[int]*EntityLTS, cfg Config) (*System, error) {
	return newCompositional(entities, ltss, cfg, lts.NewLabelTable())
}

// newCompositional is NewCompositional interning labels into the given
// table.
func newCompositional(entities map[int]*lotos.Spec, ltss map[int]*EntityLTS, cfg Config, labels *lts.LabelTable) (*System, error) {
	if cfg.ChannelCap <= 0 {
		cfg.ChannelCap = DefaultChannelCap
	}
	sys := &System{
		Entities: entities,
		placeIdx: map[int]int{},
		cfg:      cfg,
		// Quotient classes carry no syntax to detect columns in, so the
		// symmetry reduction never applies to a preset system.
		red:    cfg.effectiveReductions() &^ RedSymmetry,
		msgIDs: map[message]int32{},
		preset: true,
	}
	sys.setLabels(labels)
	for p := range entities {
		sys.Places = append(sys.Places, p)
	}
	sortInts(sys.Places)
	for idx, p := range sys.Places {
		el := ltss[p]
		if el == nil || el.Quotient == nil {
			return nil, fmt.Errorf("compose: no quotient LTS for place %d", p)
		}
		sys.placeIdx[p] = idx
		sys.intern = append(sys.intern, map[string]int32{})
		sys.local = append(sys.local, nil)
		_ = idx
	}
	// Second pass: message/peer resolution needs the complete placeIdx.
	for idx, p := range sys.Places {
		g := ltss[p].Quotient
		states := make([]localState, g.NumStates())
		for sid := range states {
			key := g.Keys[sid]
			sys.intern[idx][key] = int32(sid)
			states[sid] = localState{sum: digest16([]byte(key)), derived: true}
		}
		ids := lts.NewLabelMap(g.Table, sys.labels)
		for sid := range states {
			edges := g.Out(sid)
			trans := make([]cachedTrans, len(edges))
			for i, e := range edges {
				label := g.Label(e.Label)
				ct := cachedTrans{label: label, id: ids.ID(e.Label), to: e.To, peer: -1, msg: -1}
				if label.Kind == lts.LEvent {
					ev := label.Ev
					if ev.Kind == lotos.EvSend || ev.Kind == lotos.EvRecv {
						pi, ok := sys.placeIdx[ev.Place]
						if !ok {
							return nil, fmt.Errorf("compose: entity %d message event %s targets unknown place %d", p, ev, ev.Place)
						}
						ct.peer = int32(pi)
						ct.msg = sys.msgIDLocked(msgOf(ev))
						if ev.Kind == lotos.EvRecv {
							ct.flush = flushingRecv(ev)
						}
					}
				}
				trans[i] = ct
			}
			states[sid].trans = trans
		}
		sys.local[idx] = states
	}
	return sys, nil
}

// sortInts is sort.Ints without dragging the package import into this file's
// hot path twice (compose.go already sorts; kept tiny and local).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// EntityQuotientStat reports one entity's quotient-before-compose numbers.
type EntityQuotientStat struct {
	// Place is the entity's protocol place.
	Place int `json:"place"`
	// ExactStates / QuotientStates are the entity LTS sizes before and
	// after the weak quotient.
	ExactStates    int `json:"exactStates"`
	QuotientStates int `json:"quotientStates"`
	// ExactTransitions / QuotientTransitions likewise.
	ExactTransitions    int `json:"exactTransitions"`
	QuotientTransitions int `json:"quotientTransitions"`
	// BuildNanos is the explore+quotient wall time (≈0 for cache hits).
	BuildNanos int64 `json:"buildNanos"`
	// Reused marks an artifact served from a content-addressed cache.
	Reused bool `json:"reused"`
}

// CompositionalStats describes the quotient-before-compose pipeline of one
// verification: per-entity quotient sizes and build times, the size and
// exploration time of the product over quotients, artifact reuse, and —
// when the monolithic path produced the final verdict — why.
type CompositionalStats struct {
	// Entities holds one row per place, in place order.
	Entities []EntityQuotientStat `json:"entities"`
	// ProductStates / ProductTransitions size the product over quotients.
	ProductStates      int `json:"productStates"`
	ProductTransitions int `json:"productTransitions"`
	// BuildNanos sums the per-entity explore+quotient wall time;
	// ProductNanos is the quotient-product exploration wall time.
	BuildNanos   int64 `json:"buildNanos"`
	ProductNanos int64 `json:"productNanos"`
	// Reused counts entities served from an artifact cache.
	Reused int `json:"reused"`
	// Fallback, when non-empty, explains why the final verdict came from
	// the monolithic path: an entity state space over the cap, a truncated
	// quotient product, or a non-conformant verdict re-verified for its
	// exact (byte-identical, replayable) counterexample.
	Fallback string `json:"fallback,omitempty"`
}

// ExactStatesTotal sums the entities' pre-quotient state counts.
func (c *CompositionalStats) ExactStatesTotal() int {
	n := 0
	for _, e := range c.Entities {
		n += e.ExactStates
	}
	return n
}

// QuotientStatesTotal sums the entities' post-quotient state counts.
func (c *CompositionalStats) QuotientStatesTotal() int {
	n := 0
	for _, e := range c.Entities {
		n += e.QuotientStates
	}
	return n
}

// ReuseRatio is the fraction of entities served from an artifact cache.
func (c *CompositionalStats) ReuseRatio() float64 {
	if len(c.Entities) == 0 {
		return 0
	}
	return float64(c.Reused) / float64(len(c.Entities))
}
