package compose

import (
	"fmt"
	"strings"

	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// Witness step kinds.
const (
	StepService   = "service"   // an entity fires a service primitive
	StepInternal  = "internal"  // an entity fires a local internal action
	StepSend      = "send"      // an entity enqueues a message on a channel
	StepRecv      = "recv"      // an entity consumes a message from a channel
	StepDelta     = "delta"     // global successful termination (all entities)
	StepLoss      = "loss"      // the medium drops an in-transit message
	StepDuplicate = "duplicate" // the medium duplicates an in-transit message
	StepReorder   = "reorder"   // the medium swaps two adjacent messages
)

// Witness verdict kinds.
const (
	WitnessDeadlock     = "deadlock"      // path ends in a composed deadlock
	WitnessExtraTrace   = "extra-trace"   // composed behaviour absent from the service
	WitnessMissingTrace = "missing-trace" // service behaviour the composition cannot realize
)

// WitnessStep is one concrete transition of a counterexample path: which
// entity (or the medium) moved and how. Steps carry everything a replay
// needs to re-execute the path deterministically.
type WitnessStep struct {
	// Kind is one of the Step* constants.
	Kind string `json:"kind"`
	// Place is the acting entity's place number (-1 for medium faults and
	// the global δ).
	Place int `json:"place"`
	// TIndex is the index of the fired transition in the entity's local
	// transition list at the source state — the replay selector (-1 for
	// medium faults and δ).
	TIndex int `json:"tIndex"`
	// Ev is the fired entity event (zero for internal/δ/fault steps). Not
	// serialized: replay re-derives it from TIndex.
	Ev lotos.Event `json:"-"`
	// Label is a human-readable rendering of the step.
	Label string `json:"label"`
	// From and To identify the channel of a send/recv/fault step (place
	// numbers; zero otherwise).
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Msg renders the affected message of a send/recv/fault step.
	Msg string `json:"msg,omitempty"`
	// Index is the queue position a fault step acts on.
	Index int `json:"index,omitempty"`
}

// Witness is a shortest counterexample for a failed verification: a concrete
// transition path from the composed initial state to the divergence point,
// replayable step-for-step (see sim.ReplayWitness). Minimality is the BFS
// guarantee: no strictly shorter path in the explored composed graph reaches
// an equivalent divergence.
type Witness struct {
	// Kind is one of the Witness* verdict constants.
	Kind string `json:"kind"`
	// Faults is the fault model the composition ran under.
	Faults FaultModel `json:"faults"`
	// ChannelCap is the medium capacity the composition ran under.
	ChannelCap int `json:"channelCap"`
	// Steps is the concrete transition path through the composed system.
	Steps []WitnessStep `json:"steps"`
	// Trace is the observable projection of Steps.
	Trace []string `json:"trace"`
	// Missing, for a missing-trace witness, is the service trace the
	// composition cannot realize; Steps then realize exactly the first
	// MatchedPrefix labels of it.
	Missing []string `json:"missing,omitempty"`
	// MatchedPrefix is the number of Missing labels Steps realize.
	MatchedPrefix int `json:"matchedPrefix,omitempty"`
}

// Summary renders the witness as an indented step listing.
func (w *Witness) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "counterexample (%s, faults=%s, cap=%d, %d steps):\n",
		w.Kind, w.Faults, w.ChannelCap, len(w.Steps))
	for i, st := range w.Steps {
		fmt.Fprintf(&b, "  %2d. [%s] %s\n", i+1, st.Kind, st.Label)
	}
	if len(w.Trace) > 0 {
		fmt.Fprintf(&b, "  observable trace: %s\n", strings.Join(w.Trace, " "))
	}
	if w.Kind == WitnessMissingTrace {
		fmt.Fprintf(&b, "  service trace not realized: %s (composition realizes the first %d label(s))\n",
			strings.Join(w.Missing, " "), w.MatchedPrefix)
	}
	return b.String()
}

// replayPath re-walks a path of the composed graph from the initial state,
// matching each edge against a fresh derivation of the source state to
// recover the concrete step (acting entity, transition index, fault) behind
// it, and returns those steps with the concrete state the path ends in. The
// match key is (transition label key, target state key): derive is
// deterministic, so the pair identifies the edge uniquely up to replay
// equivalence (two derived moves reaching the same target state with the
// same label are interchangeable for replay purposes).
func (s *System) replayPath(g *lts.Graph, path []lts.PathStep) ([]WitnessStep, gstate, error) {
	cur := s.rootState()
	out := make([]WitnessStep, 0, len(path))
	for pi, ps := range path {
		trans, steps, err := s.derive(cur, true)
		if err != nil {
			return nil, nil, err
		}
		wantKey := g.Keys[ps.Edge.To]
		wantLabel := ps.Edge.Label.Key()
		found := -1
		for i, t := range trans {
			if t.Key == wantKey && t.Label.Key() == wantLabel {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, nil, fmt.Errorf("compose: witness path step %d: no derived transition matches edge %q", pi, ps.Edge.Label)
		}
		out = append(out, steps[found])
		cur = trans[found].To.(gstate)
	}
	return out, cur, nil
}

// buildWitness extracts the shortest counterexample for a failed report, in
// verdict priority order: a composed deadlock (shortest path to any
// deadlocked state), then an extra composed trace (behaviour the service
// forbids), then a missing service trace (realized up to its maximal
// prefix). Returns nil when the failure mode has no path-shaped witness
// (e.g. a weak-bisimulation failure with equal bounded trace sets).
func buildWitness(sys *System, r *Report, opts VerifyOptions) (*Witness, error) {
	sg, cg := r.ServiceGraph, r.ComposedGraph
	// Unbounded comparison is sound only over fully-explored graphs.
	maxObs := opts.ObsDepth
	if r.Complete {
		maxObs = 0
	}
	base := Witness{Faults: opts.Faults, ChannelCap: sys.cfg.ChannelCap}

	if r.ComposedDeadlocks > 0 {
		dead := map[int]bool{}
		for _, st := range cg.Deadlocks() {
			dead[st] = true
		}
		path, ok := cg.ShortestPathTo(func(st int) bool { return dead[st] })
		if ok {
			w := base
			w.Kind = WitnessDeadlock
			steps, _, err := sys.replayPath(cg, path)
			if err != nil {
				return nil, err
			}
			w.Steps = steps
			w.Trace = lts.ObservableTrace(path)
			return &w, nil
		}
	}
	if !r.ComposedSubset {
		if path, ok := equiv.DivergentPath(cg, sg, maxObs); ok {
			w := base
			w.Kind = WitnessExtraTrace
			steps, _, err := sys.replayPath(cg, path)
			if err != nil {
				return nil, err
			}
			w.Steps = steps
			w.Trace = lts.ObservableTrace(path)
			return &w, nil
		}
	}
	if !r.ServiceSubset {
		if missing, ok := equiv.ShortestDivergentTrace(sg, cg, maxObs); ok {
			w := base
			w.Kind = WitnessMissingTrace
			w.Missing = missing
			path, matched := equiv.TracePrefixPath(cg, missing)
			steps, _, err := sys.replayPath(cg, path)
			if err != nil {
				return nil, err
			}
			w.Steps = steps
			w.Trace = lts.ObservableTrace(path)
			w.MatchedPrefix = matched
			return &w, nil
		}
	}
	return nil, nil
}
