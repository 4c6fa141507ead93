package main

import "repro/internal/compose"

// expect is the hand-written expected answer of one verification: the
// verdict and the kind of the extracted witness.
type expect struct {
	Ok         bool
	Witness    string // witness kind, "" = none extracted
	Incomplete bool   // the exploration must be truncated
}

// deepExpect: multiinstance is conformant (B ||| B with reliable cap-1
// channels). At observable depth 4 the product is cut by the depth bound,
// so the verdict rests on the bounded weak-trace comparison alone and no
// bisimulation check or witness extraction runs.
var deepExpect = expect{Ok: true, Incomplete: true}

var (
	pass     = expect{Ok: true}
	deadlock = expect{Witness: compose.WitnessDeadlock}
	extra    = expect{Witness: compose.WitnessExtraTrace}
)

// matrixExpect is the expected verdict of every verify-matrix cell at the
// verify CLI's defaults (observable depth 8, 20,000-state cap, POR), keyed
// "spec/capN/faults". 30 cells pass, 50 fail; the barrier, example6 and
// nesteddisable rows explore to completion, so the exact bisimulation check
// runs on them.
//
// Reading the table:
//   - Loss deadlocks every protocol: the derived entities assume a reliable
//     medium (Section 6), so a lost synchronization message stalls its
//     receiver forever.
//   - Duplication at capacity 1 is absorbed (a full channel has no room for
//     the copy), so those cells equal the reliable column. At capacity 2 the
//     copy arrives and its receiver deadlocks on it.
//   - Reordering needs two distinct messages in flight on one channel; the
//     protocols rarely have them, so reorder cells mostly equal reliable.
//   - barrier fails everywhere with a deadlock: its service itself
//     deadlocks (place 4 synchronizes with whichever arm reaches s4 first,
//     and the other arms' s4 can never happen), and the protocol reproduces
//     that deadlock. The frozen copy keeps this known defect.
//   - example3, example6 and nesteddisable use disabling, which the
//     Section-5 theorem excludes: the broadcast interrupt lets normal-part
//     actions follow the interrupt (extra traces, EXPERIMENTS.md E11), and
//     the example3 and nesteddisable protocols deadlock even reliably (on
//     example3 this is E11's Rel/interrupt race). Deadlocks take priority
//     over extra traces in witness extraction.
var matrixExpect = map[string]expect{
	"anbn/cap1/reliable": pass, "anbn/cap1/loss": deadlock, "anbn/cap1/dup": pass, "anbn/cap1/reorder": pass,
	"anbn/cap2/reliable": pass, "anbn/cap2/loss": deadlock, "anbn/cap2/dup": deadlock, "anbn/cap2/reorder": pass,

	"barrier/cap1/reliable": deadlock, "barrier/cap1/loss": deadlock, "barrier/cap1/dup": deadlock, "barrier/cap1/reorder": deadlock,
	"barrier/cap2/reliable": deadlock, "barrier/cap2/loss": deadlock, "barrier/cap2/dup": deadlock, "barrier/cap2/reorder": deadlock,

	// example3's cap-2 reorder cell swaps the interrupt broadcast with a
	// data message: an extra trace, but no deadlock.
	"example3/cap1/reliable": deadlock, "example3/cap1/loss": deadlock, "example3/cap1/dup": deadlock, "example3/cap1/reorder": deadlock,
	"example3/cap2/reliable": deadlock, "example3/cap2/loss": deadlock, "example3/cap2/dup": deadlock, "example3/cap2/reorder": extra,

	"example5/cap1/reliable": pass, "example5/cap1/loss": deadlock, "example5/cap1/dup": pass, "example5/cap1/reorder": pass,
	"example5/cap2/reliable": pass, "example5/cap2/loss": deadlock, "example5/cap2/dup": deadlock, "example5/cap2/reorder": pass,

	// example6 is linear, so it has no Rel/interrupt race: reliably it only
	// shows the extra traces ("a1 d3 b2", "d3 a1", ...).
	"example6/cap1/reliable": extra, "example6/cap1/loss": deadlock, "example6/cap1/dup": extra, "example6/cap1/reorder": extra,
	"example6/cap2/reliable": extra, "example6/cap2/loss": deadlock, "example6/cap2/dup": deadlock, "example6/cap2/reorder": extra,

	"farm/cap1/reliable": pass, "farm/cap1/loss": deadlock, "farm/cap1/dup": pass, "farm/cap1/reorder": pass,
	"farm/cap2/reliable": pass, "farm/cap2/loss": deadlock, "farm/cap2/dup": deadlock, "farm/cap2/reorder": pass,

	// nesteddisable deadlocks within depth 8 in every cell but the cap-2
	// reorder one, which shows only an extra trace.
	"nesteddisable/cap1/reliable": deadlock, "nesteddisable/cap1/loss": deadlock, "nesteddisable/cap1/dup": deadlock, "nesteddisable/cap1/reorder": deadlock,
	"nesteddisable/cap2/reliable": deadlock, "nesteddisable/cap2/loss": deadlock, "nesteddisable/cap2/dup": deadlock, "nesteddisable/cap2/reorder": extra,

	"pipeline/cap1/reliable": pass, "pipeline/cap1/loss": deadlock, "pipeline/cap1/dup": pass, "pipeline/cap1/reorder": pass,
	"pipeline/cap2/reliable": pass, "pipeline/cap2/loss": deadlock, "pipeline/cap2/dup": deadlock, "pipeline/cap2/reorder": pass,

	"session/cap1/reliable": pass, "session/cap1/loss": deadlock, "session/cap1/dup": pass, "session/cap1/reorder": pass,
	"session/cap2/reliable": pass, "session/cap2/loss": deadlock, "session/cap2/dup": deadlock, "session/cap2/reorder": pass,

	"transport/cap1/reliable": pass, "transport/cap1/loss": deadlock, "transport/cap1/dup": pass, "transport/cap1/reorder": pass,
	"transport/cap2/reliable": pass, "transport/cap2/loss": deadlock, "transport/cap2/dup": deadlock, "transport/cap2/reorder": pass,
}
