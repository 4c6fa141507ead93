package sim

// The Session seam: one protocol execution advanced synchronously, a sweep
// at a time, on the caller's goroutine — no per-entity goroutines, no
// timers, no wall clock. It is the lockstep core (lockstep.go) over
// in-process runners, held as a resumable object so a discrete-event driver
// (internal/cluster) can interleave thousands to millions of concurrent
// sessions on one virtual clock: each session is paused between sweeps at
// zero cost, and advancing it never blocks or sleeps.
//
// A Session with seed s is the same execution as Run with Config{Lockstep:
// true, Seed: s, ...}: a lockstep Run is a Session run to completion. That
// identity is what makes any single cluster session replayable through the
// ordinary simulator.

import (
	"fmt"
	"sort"

	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/medium"
)

// sortedPlaces returns the places of a place-keyed map in ascending order.
// Ascending place order fixes the per-entity scheduling seeds, so a run is
// identified by cfg.Seed alone (and by engine-independent design, produces
// the same execution under either engine when stepped in lockstep).
func sortedPlaces[V any](m map[int]V) []int {
	places := make([]int, 0, len(m))
	for p := range m {
		places = append(places, p)
	}
	sort.Ints(places)
	return places
}

// engineMachines returns the compiled machines an engine runs, by place:
// none for EngineAST, the fleet's (compiled on the spot when nil) for
// EngineFSM. A place without a machine runs interpreted.
func engineMachines(entities map[int]*lotos.Spec, engine Engine, fleet *fsm.Fleet, cfg fsm.Config) map[int]*fsm.Machine {
	if engine != EngineFSM {
		return nil
	}
	if fleet == nil {
		fleet = fsm.CompileEntities(entities, cfg)
	}
	return fleet.Machines
}

// buildRunners constructs one in-process entity per place over med and w,
// choosing each entity's engine: compiled tables when the configured fleet
// has a machine for the place, the AST interpreter otherwise. A nil entity
// spec without a compiled machine is an error (fleet-only callers must have
// every place compiled).
func buildRunners(entities map[int]*lotos.Spec, places []int, med medium.Transport, w *world, cfg Config) ([]*EntityStepper, error) {
	machines := engineMachines(entities, cfg.Engine, cfg.Fleet, cfg.Compile)
	runners := make([]*EntityStepper, len(places))
	for i, p := range places {
		r, err := NewEntityStepper(p, entities[p], machines[p], med, cfg.Harness, RunnerSeed(cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		r.world = w
		runners[i] = r
	}
	return runners, nil
}

// Session is one protocol execution stepped synchronously by its caller.
// It is single-goroutine state: not safe for concurrent use, but millions
// of independent Sessions may be advanced by one driver loop.
type Session struct {
	core *Lockstep[*EntityStepper]
	w    *world // the run's record, over the session's medium
}

// sessionConfig validates and normalizes a Session config: the synchronous
// scheduler requires the immediate medium (no Reliable, no MaxDelay — their
// delivery has an asynchronous wall-clock component), and derives the
// harness and medium sub-seeds exactly as Run does.
func sessionConfig(cfg Config) (Config, error) {
	if cfg.Reliable || cfg.Medium.MaxDelay > 0 {
		return cfg, fmt.Errorf("sim: lockstep requires the immediate medium (no Reliable, no MaxDelay)")
	}
	return resolveSeeds(cfg), nil
}

// newSession builds the medium, the runners of the places and the lockstep
// core that visits them. The world only records: the core counts MaxEvents
// and decides the outcome.
func newSession(entities map[int]*lotos.Spec, places []int, cfg Config) (*Session, error) {
	med := medium.New(cfg.Medium)
	w := newWorld(len(places), med, 0)
	runners, err := buildRunners(entities, places, med, w, cfg)
	if err != nil {
		med.Close()
		return nil, err
	}
	inFlight := func() (int, error) { return med.InFlight(), nil }
	return &Session{core: NewLockstep(runners, cfg.MaxEvents, inFlight, nil), w: w}, nil
}

// NewSession builds a synchronous session over the entities. Engine
// selection behaves as in Run; wall-clock options (Reliable,
// Medium.MaxDelay) are rejected and Timeout is ignored. The caller advances
// it with StepN and must Close it when done.
func NewSession(entities map[int]*lotos.Spec, cfg Config) (*Session, error) {
	cfg, err := sessionConfig(cfg)
	if err != nil {
		return nil, err
	}
	return newSession(entities, sortedPlaces(entities), cfg)
}

// NewFleetSession builds a synchronous session over a fully compiled fleet:
// every place must have a compiled machine (no AST fallback), so sessions
// share the immutable tables and need no per-session copy of the entity
// syntax trees — the memory contract that makes million-session fleets
// affordable. cfg.Engine and cfg.Fleet are overridden by the argument. An
// incompletely compiled fleet is rejected naming its lowest failed place.
func NewFleetSession(fleet *fsm.Fleet, cfg Config) (*Session, error) {
	cfg, err := sessionConfig(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Engine = EngineFSM
	cfg.Fleet = fleet
	if failed := sortedPlaces(fleet.Errors); len(failed) > 0 {
		return nil, fmt.Errorf("sim: fleet session requires every entity compiled: entity %d: %s", failed[0], fleet.Errors[failed[0]].Reason)
	}
	if len(fleet.Machines) == 0 {
		return nil, fmt.Errorf("sim: fleet session over an empty fleet")
	}
	return newSession(nil, sortedPlaces(fleet.Machines), cfg)
}

// StepN advances the session by up to max full sweeps of the lockstep core
// (max <= 0 means until the run is over). It returns the number of sweeps
// executed and whether the session is over — every entity terminated,
// MaxEvents hit, or a sweep without progress (with the immediate medium
// nothing asynchronous can unblock such a sweep: a genuine deadlock when
// no message is in flight, a stuck run otherwise).
func (s *Session) StepN(max int) (sweeps int, done bool, err error) {
	sweeps, done, err = s.core.Run(max)
	if done {
		s.w.halt(s.core.Outcome())
	}
	return sweeps, done, err
}

// Sweeps returns the total number of sweeps executed so far — the session's
// work measure (the cluster simulator prices virtual service time by it).
func (s *Session) Sweeps() int { return s.core.Sweeps() }

// Result freezes the session's outcome. Valid at any point; the
// classification flags are only meaningful once the session is done.
func (s *Session) Result() *Result {
	return s.w.snapshot(s.core.ents)
}

// Close releases the session's medium. The session must not be stepped
// afterwards.
func (s *Session) Close() {
	s.core.over = true
	s.w.med.Close()
}
