package sim

// The lockstep core: the one deterministic scheduler of a derived protocol.
// Entities take turns in ascending place order, each visited once per
// sweep; a visit attempts one transition. Every lockstep execution in the
// repository is this loop: Session.StepN (and with it a lockstep Run and
// every cluster session) visits in-process runners, and the live
// deployment's coordinator (internal/wire) visits entity processes over
// their control connections. With the same seeds the two visit sequences
// make the same random draws, so "live == lockstep" holds by construction.

import "fmt"

// LockstepEntity is one protocol entity as the lockstep core drives it.
type LockstepEntity interface {
	// Place names the entity (in step errors).
	Place() int
	// Visit attempts one transition and reports whether the entity
	// progressed, whether it terminated, and whether it executed a service
	// primitive.
	Visit() (progressed, done, event bool, err error)
}

// Lockstep is the sweep loop over a fixed set of entities. It counts sweeps
// and service primitives, stops on the MaxEvents budget (mid-sweep: the
// visits after the budget-spending one are skipped), and classifies a
// sweep without progress as a deadlock when nothing is in flight and as a
// stuck run otherwise. It is single-goroutine state.
type Lockstep[E LockstepEntity] struct {
	ents      []E // ascending place order
	done      []bool
	left      int // entities not yet terminated
	maxEvents int
	inFlight  func() (int, error)
	// stop, when set, is the caller's external stop (a wall-clock
	// timeout); it is checked before every visit.
	stop   func() bool
	events int
	sweeps int
	end    Outcome
	over   bool
}

// NewLockstep builds the core over ents, given in ascending place order.
// maxEvents <= 0 means no budget; inFlight reports the messages sent but
// not consumed, consulted after a sweep without progress; stop (may be nil)
// is the external stop.
func NewLockstep[E LockstepEntity](ents []E, maxEvents int, inFlight func() (int, error), stop func() bool) *Lockstep[E] {
	return &Lockstep[E]{
		ents: ents, done: make([]bool, len(ents)), left: len(ents),
		maxEvents: maxEvents, inFlight: inFlight, stop: stop, end: OutcomeNone,
	}
}

// Run advances the run by up to max full sweeps (max <= 0 means until it
// is over) and returns the sweeps executed and whether the run is over:
// every entity terminated, the MaxEvents budget spent, a sweep without
// progress, the external stop, or a step error (returned naming the
// entity's place). Splitting a run across Run calls never changes it:
// quantum boundaries fall exactly between sweeps.
func (l *Lockstep[E]) Run(max int) (sweeps int, over bool, err error) {
	defer func() { l.sweeps += sweeps }()
	for !l.over && l.left > 0 && (max <= 0 || sweeps < max) {
		progress, visited := false, false
		for i, e := range l.ents {
			if l.done[i] {
				continue
			}
			if l.stop != nil && l.stop() {
				l.over = true
				break
			}
			visited = true
			progressed, done, event, err := e.Visit()
			if err != nil {
				l.over = true
				return sweeps, true, fmt.Errorf("entity %d: %w", e.Place(), err)
			}
			if done {
				l.done[i] = true
				l.left--
			}
			progress = progress || progressed
			if event {
				l.events++
				if l.maxEvents > 0 && l.events >= l.maxEvents {
					l.end, l.over = OutcomeStopped, true
					break
				}
			}
		}
		if !visited {
			break
		}
		sweeps++
		if !progress && !l.over {
			l.over = true
			n, err := l.inFlight()
			if err != nil {
				return sweeps, true, err
			}
			l.end = OutcomeTimedOut
			if n == 0 {
				l.end = OutcomeDeadlocked
			}
		}
	}
	return sweeps, l.over || l.left == 0, nil
}

// Outcome classifies the run: OutcomeCompleted once every entity
// terminated, else the core's stop cause (OutcomeNone while running, after
// an external stop, or after a step error).
func (l *Lockstep[E]) Outcome() Outcome {
	if l.left == 0 {
		return OutcomeCompleted
	}
	return l.end
}

// Sweeps returns the total number of sweeps executed.
func (l *Lockstep[E]) Sweeps() int { return l.sweeps }

// AnyEnabled folds per-entity Enabled reports (keyed by place) into the
// composition's enabledness of entity moves: a local move or a consumable
// receive anywhere, a send whose channel holds fewer than channelCap
// messages (queued reports a channel's occupancy), or a global δ — every
// entity termination-ready. Medium faults are the caller's to add.
func AnyEnabled(reports map[int]Enabled, queued func(from, to int) int, channelCap int) bool {
	deltaReady := 0
	for from, en := range reports {
		if en.Local || en.RecvReady {
			return true
		}
		for _, to := range en.SendTargets {
			if queued(from, to) < channelCap {
				return true
			}
		}
		if en.Delta {
			deltaReady++
		}
	}
	return len(reports) > 0 && deltaReady == len(reports)
}
