package conformance

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
	"repro/internal/sim"
	"repro/internal/wire"
)

const testMaxStates = 4096

// parseService parses a service spec source.
func parseService(t *testing.T, src string) *lotos.Spec {
	t.Helper()
	sp, err := lotos.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return sp
}

// logRec is one shorthand event for buildLogs.
type logRec struct {
	seq int
	ev  string
}

// entitySession describes one entity's fabricated log.
type entitySession struct {
	events  []logRec
	outcome string // "" = no end record (crash)
	restart bool
}

// buildLogs writes each session through the real TraceWriter and parses it
// back, so the tests exercise the same NDJSON path a deployment uses.
func buildLogs(t *testing.T, sessions map[int]entitySession) map[int]*wire.EntityLog {
	t.Helper()
	logs := map[int]*wire.EntityLog{}
	for place, s := range sessions {
		var buf bytes.Buffer
		tw, err := wire.NewTraceWriter(&buf, place, 1, "fsm", 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if s.restart {
			// A restarted session's events belong to the post-restart
			// segment — a start record opens a fresh numbering epoch, as in
			// a real relaunch.
			tw, err = wire.NewTraceWriter(&buf, place, 1, "fsm", 0, true)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range s.events {
			tw.Event(r.seq, r.ev)
		}
		if s.outcome != "" {
			if err := tw.End(s.outcome); err != nil {
				t.Fatal(err)
			}
		}
		log, err := wire.ParseTraceLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		logs[place] = log
	}
	return logs
}

// TestCheckAccepted: a complete two-entity session whose merged trace the
// service allows, ending in termination the service allows.
func TestCheckAccepted(t *testing.T) {
	service := parseService(t, `SPEC read1; write2; exit ENDSPEC`)
	logs := buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{0, "read1"}}, outcome: wire.OutcomeCompleted},
		2: {events: []logRec{{1, "write2"}}, outcome: wire.OutcomeCompleted},
	})
	rep, err := Check(service, logs, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictAccepted || !rep.TraceAccepted || !rep.Complete {
		t.Fatalf("want accepted, got %+v", rep)
	}
	if got := strings.Join(rep.Trace, " "); got != "read1 write2" {
		t.Fatalf("merged trace %q", got)
	}
	if rep.Outcome != wire.OutcomeCompleted {
		t.Fatalf("outcome %q", rep.Outcome)
	}
}

// TestCheckViolationTrace: the merged order contradicts the service.
func TestCheckViolationTrace(t *testing.T) {
	service := parseService(t, `SPEC read1; write2; exit ENDSPEC`)
	logs := buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{1, "read1"}}, outcome: wire.OutcomeCompleted},
		2: {events: []logRec{{0, "write2"}}, outcome: wire.OutcomeCompleted},
	})
	rep, err := Check(service, logs, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolation || rep.TraceAccepted {
		t.Fatalf("want violation, got %+v", rep)
	}
}

// TestCheckViolationEarlyTermination: the trace is a service trace, but the
// session claims successful termination where the service cannot terminate.
func TestCheckViolationEarlyTermination(t *testing.T) {
	service := parseService(t, `SPEC read1; write2; exit ENDSPEC`)
	logs := buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{0, "read1"}}, outcome: wire.OutcomeCompleted},
		2: {outcome: wire.OutcomeCompleted},
	})
	rep, err := Check(service, logs, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolation || !rep.TraceAccepted {
		t.Fatalf("want violation (early termination), got %+v", rep)
	}
	if !strings.Contains(rep.Reason, "terminate") {
		t.Fatalf("reason %q", rep.Reason)
	}
}

// TestCheckDeadlock: quiescent in a non-final state is flagged, while a
// standstill where the service could terminate is accepted.
func TestCheckDeadlock(t *testing.T) {
	service := parseService(t, `SPEC read1; write2; exit ENDSPEC`)
	logs := buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{0, "read1"}}, outcome: wire.OutcomeDeadlocked},
		2: {outcome: wire.OutcomeDeadlocked},
	})
	rep, err := Check(service, logs, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictDeadlock || !rep.TraceAccepted {
		t.Fatalf("want deadlock, got %+v", rep)
	}

	// Same standstill after the full trace: the service can terminate
	// there, so quiescence is not an error.
	logs = buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{0, "read1"}}, outcome: wire.OutcomeDeadlocked},
		2: {events: []logRec{{1, "write2"}}, outcome: wire.OutcomeDeadlocked},
	})
	rep, err = Check(service, logs, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictAccepted {
		t.Fatalf("quiescent final state should be accepted, got %+v", rep)
	}
}

// TestCheckIncompleteCrash: a log without an end record (the crash shape)
// yields an incomplete verdict with the recorded prefix still checked.
func TestCheckIncompleteCrash(t *testing.T) {
	service := parseService(t, `SPEC read1; write2; exit ENDSPEC`)
	logs := buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{0, "read1"}}, outcome: wire.OutcomeCompleted},
		2: {}, // crashed before any event, no end record
	})
	rep, err := Check(service, logs, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictIncomplete || !rep.TraceAccepted || rep.Complete {
		t.Fatalf("want incomplete with accepted prefix, got %+v", rep)
	}
	if !strings.Contains(rep.Reason, "no end record") {
		t.Fatalf("reason %q", rep.Reason)
	}
}

// TestCheckIncompleteGap: a missing sequence number (one entity's
// observations lost) truncates the checked trace at the gap and strands the
// later events, but the verdict stays incomplete as long as the prefix is a
// service trace.
func TestCheckIncompleteGap(t *testing.T) {
	service := parseService(t, `SPEC read1; write2; read1; write2; exit ENDSPEC`)
	logs := buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{0, "read1"}, {2, "read1"}}, outcome: wire.OutcomeCompleted},
		2: {}, // write2 at sequence 1 lost with its recorder
	})
	rep, err := Check(service, logs, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictIncomplete || !rep.TraceAccepted {
		t.Fatalf("want incomplete, got %+v", rep)
	}
	if rep.Gaps != 1 || rep.Beyond != 1 || len(rep.Trace) != 1 || rep.Trace[0] != "read1" {
		t.Fatalf("gap accounting wrong: %+v", rep)
	}
}

// TestCheckIncompleteBadPrefix: even an incomplete session is a violation
// when what WAS recorded already contradicts the service.
func TestCheckIncompleteBadPrefix(t *testing.T) {
	service := parseService(t, `SPEC read1; write2; exit ENDSPEC`)
	logs := buildLogs(t, map[int]entitySession{
		1: {},
		2: {events: []logRec{{0, "write2"}}, outcome: ""},
	})
	rep, err := Check(service, logs, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolation {
		t.Fatalf("bad prefix must trump incompleteness, got %+v", rep)
	}
}

// TestCheckIncompleteRestartAndAbort: restart markers and aborted outcomes
// both mark the session incomplete.
func TestCheckIncompleteRestartAndAbort(t *testing.T) {
	service := parseService(t, `SPEC read1; write2; exit ENDSPEC`)
	logs := buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{0, "read1"}}, restart: true, outcome: wire.OutcomeCompleted},
		2: {events: []logRec{{1, "write2"}}, outcome: wire.OutcomeCompleted},
	})
	rep, err := Check(service, logs, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictIncomplete || rep.Restarts != 1 || !rep.TraceAccepted {
		t.Fatalf("want incomplete via restart with accepted trace, got %+v", rep)
	}

	logs = buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{0, "read1"}}, outcome: wire.OutcomeAborted},
		2: {events: []logRec{{1, "write2"}}, outcome: wire.OutcomeCompleted},
	})
	rep, err = Check(service, logs, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictIncomplete {
		t.Fatalf("want incomplete via abort, got %+v", rep)
	}
}

// TestCheckTamperedLog: a broken digest chain is a violation regardless of
// the trace content.
func TestCheckTamperedLog(t *testing.T) {
	service := parseService(t, `SPEC read1; write2; exit ENDSPEC`)
	var buf bytes.Buffer
	tw, err := wire.NewTraceWriter(&buf, 1, 1, "fsm", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	tw.Event(0, "read1")
	if err := tw.End(wire.OutcomeCompleted); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(buf.String(), "read1", "fake9", 1)
	log, err := wire.ParseTraceLog(strings.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(service, map[int]*wire.EntityLog{1: log}, testMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolation || !strings.Contains(rep.Reason, "digest") {
		t.Fatalf("want digest violation, got %+v", rep)
	}
}

// TestMergeDuplicateSeq: two entities claiming the same global sequence
// number is an error, not a verdict.
func TestMergeDuplicateSeq(t *testing.T) {
	logs := buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{0, "read1"}}, outcome: wire.OutcomeCompleted},
		2: {events: []logRec{{0, "write2"}}, outcome: wire.OutcomeCompleted},
	})
	if _, err := Merge(logs); err == nil {
		t.Fatal("duplicate sequence numbers merged without error")
	}
	service := parseService(t, `SPEC read1; write2; exit ENDSPEC`)
	if _, err := Check(service, logs, testMaxStates); err == nil {
		t.Fatal("Check accepted colliding logs")
	}
}

// TestCheckAgainstSimulation closes the loop with the simulator: fabricate
// per-entity logs from a real lockstep run of a derived corpus-style spec
// and require the conformance verdict to agree with sim.CheckTrace.
func TestCheckAgainstSimulation(t *testing.T) {
	src := `SPEC read1; write2; read1; write2; exit ENDSPEC`
	sp := parseService(t, src)
	d, err := core.Derive(sp, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		res, err := sim.Run(d.Entities, sim.Config{Seed: seed, Lockstep: true, MaxEvents: 32})
		if err != nil {
			t.Fatal(err)
		}
		sessions := map[int]entitySession{}
		for p := range d.Entities {
			sessions[p] = entitySession{outcome: outcomeOf(res)}
		}
		for _, ev := range res.Trace {
			s := sessions[ev.Place]
			s.events = append(s.events, logRec{seq: ev.Seq, ev: ev.Ev.String()})
			sessions[ev.Place] = s
		}
		rep, err := Check(d.Service.Spec, buildLogs(t, sessions), testMaxStates)
		if err != nil {
			t.Fatal(err)
		}
		// sim.CheckTrace ignores deadlock; conformance additionally flags
		// quiescent non-final states, so compare on the shared ground.
		simErr := sim.CheckTrace(d.Service.Spec, res, testMaxStates)
		if simErr == nil {
			if !rep.TraceAccepted {
				t.Fatalf("seed %d: sim accepts trace, conformance rejects: %s", seed, rep.Reason)
			}
			if res.Completed && rep.Verdict != VerdictAccepted {
				t.Fatalf("seed %d: completed run not accepted: %s (%s)", seed, rep.Verdict, rep.Reason)
			}
		} else if rep.Verdict == VerdictAccepted {
			t.Fatalf("seed %d: conformance accepts what sim.CheckTrace rejects (%v)", seed, simErr)
		}
	}
}

// outcomeOf renders a sim result as the trace-log outcome string.
func outcomeOf(res *sim.Result) string {
	switch {
	case res.Completed:
		return wire.OutcomeCompleted
	case res.Deadlocked:
		return wire.OutcomeDeadlocked
	case res.TimedOut:
		return wire.OutcomeTimedOut
	default:
		return wire.OutcomeStopped
	}
}

// TestCheckStateBudgetIsAnError: when the service states a check needs
// outgrow maxStates, Check returns an error wrapping lts.ErrStateBudget and
// no verdict. The bounded explorer, capped at 8 states, used to report the
// service trace a1^3 b2^3 of (a1)^n (b2)^n as a violation.
func TestCheckStateBudgetIsAnError(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "specs", "anbn.spec"))
	if err != nil {
		t.Fatal(err)
	}
	service := parseService(t, string(src))
	logs := buildLogs(t, map[int]entitySession{
		1: {events: []logRec{{0, "a1"}, {1, "a1"}, {2, "a1"}}, outcome: wire.OutcomeCompleted},
		2: {events: []logRec{{3, "b2"}, {4, "b2"}, {5, "b2"}}, outcome: wire.OutcomeCompleted},
	})
	rep, err := Check(service, logs, 8)
	if !errors.Is(err, lts.ErrStateBudget) || rep != nil {
		t.Fatalf("capped check: report %+v, error %v; want no report and lts.ErrStateBudget", rep, err)
	}
	rep, err = Check(service, logs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictAccepted {
		t.Fatalf("uncapped check: %+v", rep)
	}
}
