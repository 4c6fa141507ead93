package sim

// This file implements counterexample replay: it re-executes a
// compose.Witness step-for-step through a runtime entity engine and the
// medium, confirming that the abstract counterexample found by state-space
// exploration is a real execution of the concrete system. Replay is fully
// deterministic: the witness pins every choice (which entity moves, which
// local transition fires, which medium fault strikes which queue position),
// and the medium runs with zero delay and no random faults — targeted
// DropAt/DuplicateAt/SwapAt calls reproduce the fault events instead.
//
// Entity steps run through EntityStepper.StepExact and the final
// enabledness check folds EntityStepper.Enabledness reports through
// AnyEnabled — the same entity-side code the live deployment replays and
// schedules with — so a witness can be replayed through either engine: the
// compiled tables preserve per-state transition order (the TIndex a witness
// step pins selects the same transition in both), which the FSM replay
// regression suite checks across the whole fault-matrix corpus. The
// replayer keeps only the checks that need the whole medium: fault steps,
// channel capacity before a send, and queue occupancy.

import (
	"fmt"

	"repro/internal/compose"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/medium"
)

// ReplayResult is the outcome of replaying a witness.
type ReplayResult struct {
	// Trace is the observable projection of the replayed execution: the
	// service primitives fired, plus a final "delta" on termination. It
	// must equal the witness's Trace.
	Trace []string
	// Terminated reports that the replay ended in global successful
	// termination (the witness path took the δ transition).
	Terminated bool
	// Deadlocked reports that after the final step no entity move, no
	// global δ, and no fault of the witness's model is enabled — the
	// deadlock the witness claims.
	Deadlocked bool
	// Steps is the number of witness steps executed.
	Steps int
	// MediumStats snapshots the medium counters after the replay (sent,
	// delivered, dropped, duplicated, reordered, flushed).
	MediumStats medium.Stats
	// Engines records which engine replayed each place.
	Engines map[int]Engine
}

// replayer holds the concrete system state during a witness replay.
type replayer struct {
	places []int
	ents   map[int]*EntityStepper
	med    *boundedMedium
	faults compose.FaultModel
}

// boundedMedium is the replay medium: the composition's channels hold at
// most cap messages, so a send into a full queue is not a transition of the
// composed system. Send refuses it and keeps the refusal for the replayer
// to report (a medium.Transport send cannot fail).
type boundedMedium struct {
	*medium.Medium
	cap     int
	refused error
}

// Send implements medium.Transport with the capacity bound.
func (m *boundedMedium) Send(msg medium.Message) {
	if len(m.Pending(msg.From, msg.To)) >= m.cap {
		m.refused = fmt.Errorf("channel %d->%d is at capacity %d, send blocks", msg.From, msg.To, m.cap)
		return
	}
	m.Medium.Send(msg)
}

// queued reports a channel's occupancy.
func (m *boundedMedium) queued(from, to int) int { return len(m.Pending(from, to)) }

// ReplayWitness re-executes a counterexample through the AST interpreter
// and returns what the concrete system did. Each witness step is validated
// against the entity's derived transitions (the step's TIndex must select a
// transition of the step's kind) or against the medium's queues (a fault
// step must find its queue position occupied); any mismatch is an error —
// the witness does not describe a real execution.
func ReplayWitness(entities map[int]*lotos.Spec, w *compose.Witness) (*ReplayResult, error) {
	return ReplayWitnessEngine(entities, w, EngineAST, nil)
}

// ReplayWitnessEngine is ReplayWitness with an engine choice. Under
// EngineFSM the entities run compiled (fleet is compiled on the spot when
// nil), with per-entity AST fallback on compilation failure.
func ReplayWitnessEngine(entities map[int]*lotos.Spec, w *compose.Witness, engine Engine, fleet *fsm.Fleet) (*ReplayResult, error) {
	if w == nil {
		return nil, fmt.Errorf("sim: nil witness")
	}
	// A service with no primitives derives zero entities; its (empty)
	// composed system is a root deadlock and the witness has no steps, so
	// replay degenerates to the final enabledness check.
	rp := &replayer{
		places: sortedPlaces(entities),
		ents:   make(map[int]*EntityStepper, len(entities)),
		med:    &boundedMedium{Medium: medium.New(medium.Config{}), cap: w.ChannelCap},
		faults: w.Faults,
	}
	if rp.med.cap <= 0 {
		rp.med.cap = compose.DefaultChannelCap
	}
	defer rp.med.Close()
	machines := engineMachines(entities, engine, fleet, fsm.Config{})
	// Every choice is pinned by the witness: the harness is never consulted.
	harness := NewScripted(nil)
	engines := make(map[int]Engine, len(entities))
	for _, p := range rp.places {
		e, err := NewEntityStepper(p, entities[p], machines[p], rp.med, harness, 0)
		if err != nil {
			return nil, err
		}
		rp.ents[p] = e
		engines[p] = e.engine
	}
	res := &ReplayResult{Engines: engines}
	for i, st := range w.Steps {
		if err := rp.step(st, res); err != nil {
			return nil, fmt.Errorf("sim: witness step %d [%s] %s: %w", i+1, st.Kind, st.Label, err)
		}
		res.Steps++
	}
	if !res.Terminated {
		enabled, err := rp.anyEnabled()
		if err != nil {
			return nil, err
		}
		res.Deadlocked = !enabled
	}
	res.MediumStats = rp.med.Stats()
	return res, nil
}

// step executes one witness step against the concrete system.
func (rp *replayer) step(st compose.WitnessStep, res *ReplayResult) error {
	switch st.Kind {
	case compose.StepDelta:
		for _, p := range rp.places {
			if _, err := rp.ents[p].StepExact(-1, fsm.OpDelta); err != nil {
				return err
			}
		}
		res.Trace = append(res.Trace, "delta")
		res.Terminated = true
		return nil
	case compose.StepLoss:
		if !rp.med.DropAt(st.From, st.To, st.Index) {
			return fmt.Errorf("channel %d->%d has no message at position %d", st.From, st.To, st.Index)
		}
		return nil
	case compose.StepDuplicate:
		if rp.med.queued(st.From, st.To) >= rp.med.cap {
			return fmt.Errorf("channel %d->%d is at capacity %d, duplication not enabled", st.From, st.To, rp.med.cap)
		}
		if !rp.med.DuplicateAt(st.From, st.To, st.Index) {
			return fmt.Errorf("channel %d->%d has no message at position %d", st.From, st.To, st.Index)
		}
		return nil
	case compose.StepReorder:
		if !rp.med.SwapAt(st.From, st.To, st.Index) {
			return fmt.Errorf("channel %d->%d has no adjacent pair at position %d", st.From, st.To, st.Index)
		}
		return nil
	}

	// Entity step: the TIndex selects the fired transition in derivation
	// order — the same order compose's exploration caches and the compiled
	// tables preserve.
	op, ok := ExactOp(st.Kind)
	if !ok {
		return fmt.Errorf("unknown witness step kind %q", st.Kind)
	}
	e, ok := rp.ents[st.Place]
	if !ok {
		return fmt.Errorf("witness names unknown entity %d", st.Place)
	}
	out, err := e.StepExact(st.TIndex, op)
	if err == nil {
		err = rp.med.refused
	}
	if err == nil && out.Event != nil {
		res.Trace = append(res.Trace, out.Event.String())
	}
	return err
}

// anyEnabled mirrors the composition's global-transition enabledness at the
// replayer's current state: an entity move (AnyEnabled over the entities'
// Enabled reports) or a fault of the witness's model applicable to some
// queue.
func (rp *replayer) anyEnabled() (bool, error) {
	reports := make(map[int]Enabled, len(rp.places))
	for _, p := range rp.places {
		en, err := rp.ents[p].Enabledness()
		if err != nil {
			return false, err
		}
		reports[p] = en
	}
	if AnyEnabled(reports, rp.med.queued, rp.med.cap) {
		return true, nil
	}
	if !rp.faults.Any() {
		return false, nil
	}
	for _, from := range rp.places {
		for _, to := range rp.places {
			if from == to {
				continue
			}
			q := rp.med.Pending(from, to)
			if len(q) == 0 {
				continue
			}
			if rp.faults.Loss {
				return true, nil
			}
			if rp.faults.Duplication && len(q) < rp.med.cap {
				return true, nil
			}
			if rp.faults.Reorder {
				for i := 0; i+1 < len(q); i++ {
					if q[i] != q[i+1] {
						return true, nil
					}
				}
			}
		}
	}
	return false, nil
}
