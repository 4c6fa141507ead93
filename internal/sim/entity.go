package sim

// EntityStepper: one protocol entity executed one step at a time. In
// process, it is the unit the schedulers drive — the lockstep core visits
// it once per sweep (Session), a concurrent Run gives it a goroutine of its
// own (run). The wire deployment (internal/wire) runs each derived entity
// in its own OS process around one EntityStepper, while the lockstep core
// runs in the coordinator, visiting each entity over TCP: same stepper
// engines, same candidate scan, same random-choice consumption, so a
// distributed session with seed s is the same execution as Run with
// Config{Lockstep: true, Seed: s}. Its exact steps and enabledness reports
// are also what witness replay runs on, in process (ReplayWitnessEngine)
// and live (the coordinator's replay).

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/compose"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/medium"
)

// HarnessSeed derives the seed of a run's default accept-all harness —
// exactly the stream resolveSeeds hands Run and Session. External
// schedulers that host the harness themselves (the wire coordinator) must
// use it to stay execution-identical to an in-process lockstep run.
func HarnessSeed(seed int64) int64 { return SubSeed(seed, roleHarness, 0) }

// RunnerSeed derives the scheduling seed of the entity at sorted-place
// index placeIndex — the stream buildRunners hands runner placeIndex.
func RunnerSeed(seed int64, placeIndex int) int64 {
	return SubSeed(seed, roleRunner, placeIndex)
}

// StepOutcome reports one step of an entity.
type StepOutcome struct {
	// Progressed reports that the entity executed a transition.
	Progressed bool
	// Done reports successful termination (the δ transition fired); the
	// entity must not be stepped again.
	Done bool
	// Event is the service primitive executed this step, if any. It may
	// point into the entity's transition row: valid until the next step.
	Event *lotos.Event
}

// EntityStepper drives one protocol entity against a medium.Transport, one
// step at a time, on the caller's goroutine. It is single-goroutine state:
// not safe for concurrent use.
type EntityStepper struct {
	place   int
	step    stepper
	engine  Engine
	med     medium.Transport
	world   *world // the in-process run's record; nil under an external scheduler
	harness Harness
	rng     *rand.Rand
	cands   []int // reused candidate buffer
	done    bool
}

// NewEntityStepper builds one entity. machine selects the compiled engine
// when non-nil; otherwise spec is interpreted by the AST engine (the
// per-entity fallback of a mixed fleet). seed must be
// RunnerSeed(runSeed, placeIndex) and harness the shared run harness for
// the execution to match an in-process run.
func NewEntityStepper(place int, spec *lotos.Spec, machine *fsm.Machine, med medium.Transport, harness Harness, seed int64) (*EntityStepper, error) {
	if harness == nil {
		return nil, fmt.Errorf("sim: entity stepper needs a harness")
	}
	st, engine, err := newStepper(place, spec, machine)
	if err != nil {
		return nil, err
	}
	return &EntityStepper{
		place: place, step: st, engine: engine, med: med,
		harness: harness, rng: rand.New(newPCG(seed)),
	}, nil
}

// newPCG seeds a PCG stream from a scheduling seed. Seeding is O(1) — the
// previous lagged-Fibonacci source spent ~10µs per runner filling its state
// vector, which dominated short simulation runs (see BenchmarkSimulate).
func newPCG(seed int64) *rand.PCG {
	return rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)
}

// Place implements LockstepEntity.
func (e *EntityStepper) Place() int { return e.place }

// Describe renders the entity's current state for diagnostics.
func (e *EntityStepper) Describe() string {
	if e.done {
		return "terminated"
	}
	return e.step.describe()
}

// StepOnce evaluates the current transition row and executes at most one
// transition — one lockstep sweep visit. The random-choice structure (one
// optional user-interaction lottery, then a uniform pick among executable
// candidates) is the engine-independent scheduling contract: both steppers
// feed it identical rows, so a seeded run produces the same execution under
// either engine. After termination it reports Done without stepping.
func (e *EntityStepper) StepOnce() (StepOutcome, error) {
	if e.done {
		return StepOutcome{Done: true}, nil
	}
	n, err := e.step.reload()
	if err != nil {
		return StepOutcome{}, err
	}
	e.cands = e.cands[:0]
	for i := 0; i < n; i++ {
		switch e.step.op(i) {
		case fsm.OpDelta, fsm.OpInternal, fsm.OpSend:
			e.cands = append(e.cands, i)
		case fsm.OpRecv, fsm.OpRecvFlush:
			// Peek: enabled only if the wanted message is consumable. The
			// actual consumption happens in execute, which re-checks
			// (another branch cannot steal it: only this entity consumes
			// this channel).
			if e.consumable(i) {
				e.cands = append(e.cands, i)
			}
		}
	}

	// Possibly attempt a user interaction this step. A successful Choose
	// CLAIMS the offer (a scripted harness advances its cursor), so an
	// accepted service primitive must be executed immediately — it may not
	// lose a lottery against the other candidates.
	if offered, offeredIdx := e.step.offers(); len(offered) > 0 {
		attempt := len(e.cands) == 0 || e.rng.IntN(len(e.cands)+1) == len(e.cands)
		if attempt {
			if pick := e.harness.Choose(e.place, offered); pick >= 0 && pick < len(offered) {
				out := StepOutcome{Progressed: true, Event: &offered[pick]}
				return out, e.step.advance(int(offeredIdx[pick]))
			}
		}
	}

	if len(e.cands) == 0 {
		return StepOutcome{}, nil
	}
	i := e.cands[e.rng.IntN(len(e.cands))]
	if e.step.op(i) == fsm.OpDelta {
		e.done = true
		return StepOutcome{Progressed: true, Done: true}, nil
	}
	if err := e.execute(i); err != nil {
		return StepOutcome{}, err
	}
	return StepOutcome{Progressed: true}, e.step.advance(i)
}

// consumable reports whether receive transition i of the current row can
// consume its message now.
func (e *EntityStepper) consumable(i int) bool {
	want := medium.WantedBy(e.place, e.step.ev(i))
	if e.step.op(i) == fsm.OpRecvFlush {
		return e.med.TryConsumeFlushCheck(want)
	}
	return e.med.TryConsumeCheck(want)
}

// execute performs the medium side effect of transition i of the current
// row: a send enqueues its message, a receive consumes its message;
// internal transitions and service primitives touch nothing.
func (e *EntityStepper) execute(i int) error {
	switch op := e.step.op(i); op {
	case fsm.OpInternal, fsm.OpService:
		return nil
	case fsm.OpSend:
		e.med.Send(medium.MessageFor(e.place, e.step.ev(i)))
		return nil
	case fsm.OpRecv, fsm.OpRecvFlush:
		want := medium.WantedBy(e.place, e.step.ev(i))
		consumed := false
		if op == fsm.OpRecvFlush {
			consumed = e.med.TryConsumeFlush(want)
		} else {
			consumed = e.med.TryConsume(want)
		}
		if !consumed {
			return fmt.Errorf("sim: entity %d cannot consume %s", e.place, want)
		}
		return nil
	}
	return fmt.Errorf("sim: entity %d: unexpected transition op %s", e.place, e.step.op(i))
}

// Visit is one scheduling visit of an in-process entity — the
// LockstepEntity contract of the lockstep core, and the body of the
// concurrent run loop: StepOnce, with its effect published to the world (an
// executed service primitive recorded, a termination counted, any other
// progress broadcast to the entities waiting on the world).
func (e *EntityStepper) Visit() (progressed, done, event bool, err error) {
	out, err := e.StepOnce()
	switch {
	case err != nil:
	case out.Event != nil:
		e.world.record(e.place, *out.Event)
	case out.Done:
		e.world.markDone()
	case out.Progressed:
		e.world.bump()
	}
	return out.Progressed, out.Done, out.Event != nil, err
}

// run executes the entity concurrently with the others until successful
// termination or a world stop.
func (e *EntityStepper) run() error {
	for !e.world.isStopped() {
		gen := e.world.generation()
		medGen := e.med.Generation()
		progressed, done, _, err := e.Visit()
		if err != nil || done {
			return err
		}
		// Without progress, block until the world moves (message arrival,
		// script progress, other entities, stop) — unless a message arrived
		// meanwhile: then re-evaluate at once.
		if !progressed && e.med.Generation() == medGen {
			e.world.await(gen)
		}
	}
	return nil
}

// Enabled classifies the entity's current transition row for a global
// quiescence check: AnyEnabled folds the per-entity reports into the
// composition-level enabledness verdict. SendTargets lists the destination
// place of every send transition (enabledness of a send is a global
// question — it depends on the receiver's queue occupancy against the
// channel capacity — so the stepper only reports the offer).
type Enabled struct {
	// Delta reports a successful-termination transition.
	Delta bool
	// Local reports an internal transition or a service-primitive offer —
	// always executable, so any entity with Local set is not quiescent.
	Local bool
	// RecvReady reports a receive transition whose wanted message is
	// currently consumable from the entity's medium.
	RecvReady bool
	// SendTargets are the destination places of the row's send transitions.
	SendTargets []int
}

// Enabledness computes the entity's current Enabled report.
func (e *EntityStepper) Enabledness() (Enabled, error) {
	var en Enabled
	if e.done {
		return en, nil
	}
	s := e.step
	n, err := s.reload()
	if err != nil {
		return en, err
	}
	for i := 0; i < n; i++ {
		switch s.op(i) {
		case fsm.OpDelta:
			en.Delta = true
		case fsm.OpInternal, fsm.OpService:
			en.Local = true
		case fsm.OpSend:
			en.SendTargets = append(en.SendTargets, s.ev(i).Place)
		case fsm.OpRecv, fsm.OpRecvFlush:
			en.RecvReady = en.RecvReady || e.consumable(i)
		}
	}
	return en, nil
}

// ExactOp maps a witness step kind (compose.Step*) to the transition op an
// exact step of that kind fires; medium faults and δ have none.
func ExactOp(kind string) (fsm.Op, bool) {
	switch kind {
	case compose.StepInternal:
		return fsm.OpInternal, true
	case compose.StepService:
		return fsm.OpService, true
	case compose.StepSend:
		return fsm.OpSend, true
	case compose.StepRecv:
		return fsm.OpRecv, true
	}
	return 0, false
}

// StepExact executes transition tindex of the current row, validating that
// its dispatch kind matches want (a receive grant accepts a flushing
// receive) — one entity step of a witness replay, whose medium fault steps
// are the replayer's. want == fsm.OpDelta takes the entity's δ transition
// regardless of tindex (the witness's δ step is a single global
// transition).
func (e *EntityStepper) StepExact(tindex int, want fsm.Op) (StepOutcome, error) {
	if e.done {
		return StepOutcome{}, fmt.Errorf("sim: entity %d already terminated", e.place)
	}
	s := e.step
	n, err := s.reload()
	if err != nil {
		return StepOutcome{}, err
	}
	if want == fsm.OpDelta {
		for i := 0; i < n; i++ {
			if s.op(i) == fsm.OpDelta {
				e.done = true
				return StepOutcome{Progressed: true, Done: true}, s.advance(i)
			}
		}
		return StepOutcome{}, fmt.Errorf("sim: entity %d cannot terminate", e.place)
	}
	if tindex < 0 || tindex >= n {
		return StepOutcome{}, fmt.Errorf("sim: entity %d has %d transitions, step selects #%d", e.place, n, tindex)
	}
	op := s.op(tindex)
	if op != want && !(want == fsm.OpRecv && op == fsm.OpRecvFlush) {
		return StepOutcome{}, fmt.Errorf("sim: entity %d transition #%d is %s, not %s", e.place, tindex, op, want)
	}
	if err := e.execute(tindex); err != nil {
		return StepOutcome{}, err
	}
	out := StepOutcome{Progressed: true}
	if op == fsm.OpService {
		ev := s.ev(tindex)
		out.Event = &ev
	}
	return out, s.advance(tindex)
}
