package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lotos"
	"repro/internal/medium"
)

// fakeEntity is a scripted LockstepEntity: visit k returns script[k] (no
// progress once the script is spent), or failure when k == failAt. Every
// visit appends the entity's place to the shared log.
type fakeEntity struct {
	place  int
	script []StepOutcome
	failAt int // visit index that fails; -1 for none
	visits int
	log    *[]int
}

func (f *fakeEntity) Place() int { return f.place }

func (f *fakeEntity) Visit() (progressed, done, event bool, err error) {
	*f.log = append(*f.log, f.place)
	k := f.visits
	f.visits++
	if k == f.failAt {
		return false, false, false, errors.New("boom")
	}
	if k < len(f.script) {
		o := f.script[k]
		return o.Progressed, o.Done, o.Event != nil, nil
	}
	return false, false, false, nil
}

var (
	fakeMove  = StepOutcome{Progressed: true}
	fakeEvent = StepOutcome{Progressed: true, Event: &lotos.Event{Name: "e", Place: 1}}
	fakeDone  = StepOutcome{Progressed: true, Done: true}
	fakeIdle  = StepOutcome{}
)

// fakeRun builds a core over one scripted entity per script, at places 1..n.
func fakeRun(scripts [][]StepOutcome, maxEvents, inFlight int, stop func() bool) (*Lockstep[*fakeEntity], *[]int) {
	log := &[]int{}
	ents := make([]*fakeEntity, len(scripts))
	for i, sc := range scripts {
		ents[i] = &fakeEntity{place: i + 1, script: sc, failAt: -1, log: log}
	}
	return NewLockstep(ents, maxEvents, func() (int, error) { return inFlight, nil }, stop), log
}

// runToEnd runs the core in quanta of q sweeps until it is over.
func runToEnd(t *testing.T, l *Lockstep[*fakeEntity], q int) {
	t.Helper()
	for guard := 0; ; guard++ {
		_, over, err := l.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if over {
			return
		}
		if guard > 1000 {
			t.Fatal("run never ended")
		}
	}
}

// TestLockstepMaxEventsStopsMidSweep: the visit that spends the budget ends
// the run at once — the places after it in that sweep are not visited — and
// the sweep counts.
func TestLockstepMaxEventsStopsMidSweep(t *testing.T) {
	l, log := fakeRun([][]StepOutcome{
		{fakeMove, fakeMove},
		{fakeEvent, fakeEvent},
		{fakeMove, fakeMove},
	}, 2, 0, nil)
	runToEnd(t, l, 0)
	if want := []int{1, 2, 3, 1, 2}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("visits %v, want %v", *log, want)
	}
	if l.Outcome() != OutcomeStopped || l.Sweeps() != 2 || l.events != 2 {
		t.Fatalf("outcome %s sweeps %d events %d, want stopped 2 2", l.Outcome(), l.Sweeps(), l.events)
	}
}

// TestLockstepNoProgressSweep: a full sweep without progress ends the run —
// a deadlock when nothing is in flight, a stuck (timed-out) run otherwise —
// and an entity that terminated is not visited again.
func TestLockstepNoProgressSweep(t *testing.T) {
	for _, tc := range []struct {
		inFlight int
		want     Outcome
	}{{0, OutcomeDeadlocked}, {2, OutcomeTimedOut}} {
		l, log := fakeRun([][]StepOutcome{{fakeDone}, {fakeMove, fakeIdle}}, 0, tc.inFlight, nil)
		runToEnd(t, l, 0)
		if l.Outcome() != tc.want || l.Sweeps() != 2 {
			t.Errorf("in flight %d: outcome %s after %d sweeps, want %s after 2", tc.inFlight, l.Outcome(), l.Sweeps(), tc.want)
		}
		if want := []int{1, 2, 2}; !reflect.DeepEqual(*log, want) {
			t.Errorf("in flight %d: visits %v, want %v", tc.inFlight, *log, want)
		}
	}
}

// TestLockstepQuantaInvariant: splitting a run into quanta of 0 (whole),
// 1 or 3 sweeps never changes the visit sequence, sweeps, events or outcome.
func TestLockstepQuantaInvariant(t *testing.T) {
	scripts := [][]StepOutcome{
		{fakeMove, fakeIdle, fakeEvent, fakeMove, fakeDone},
		{fakeEvent, fakeMove, fakeMove, fakeIdle, fakeEvent, fakeMove, fakeDone},
		{fakeIdle, fakeIdle, fakeMove, fakeEvent, fakeDone},
	}
	type run struct {
		log            []int
		sweeps, events int
		outcome        Outcome
	}
	var runs []run
	for _, q := range []int{0, 1, 3} {
		l, log := fakeRun(scripts, 0, 0, nil)
		runToEnd(t, l, q)
		runs = append(runs, run{*log, l.Sweeps(), l.events, l.Outcome()})
	}
	if runs[0].outcome != OutcomeCompleted {
		t.Fatalf("outcome %s, want completed", runs[0].outcome)
	}
	for i, r := range runs[1:] {
		if !reflect.DeepEqual(r, runs[0]) {
			t.Fatalf("quantum run %d diverged:\n got %+v\nwant %+v", i+1, r, runs[0])
		}
	}
}

// TestLockstepStepErrorNamesPlace: a failing visit ends the run with an
// error naming the failing entity's place.
func TestLockstepStepErrorNamesPlace(t *testing.T) {
	l, _ := fakeRun([][]StepOutcome{{fakeMove}, {fakeMove}, {fakeMove}}, 0, 0, nil)
	l.ents[1].failAt = 1
	_, over, err := l.Run(0)
	if err == nil || !over {
		t.Fatalf("over=%v err=%v, want a step error", over, err)
	}
	if !strings.HasPrefix(err.Error(), "entity 2: ") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error %q does not name place 2", err)
	}
	if _, over, err := l.Run(0); !over || err != nil {
		t.Fatalf("failed core stepped again: over=%v err=%v", over, err)
	}
}

// TestLockstepExternalStop: the external stop is checked before every
// visit, so once it fires no further entity is visited and the run ends
// without a cause of its own.
func TestLockstepExternalStop(t *testing.T) {
	var log *[]int
	stop := func() bool { return len(*log) >= 4 }
	l, lg := fakeRun([][]StepOutcome{{fakeMove, fakeMove, fakeMove}, {fakeMove, fakeMove, fakeMove}, {fakeMove, fakeMove, fakeMove}}, 0, 0, stop)
	log = lg
	runToEnd(t, l, 0)
	if want := []int{1, 2, 3, 1}; !reflect.DeepEqual(*log, want) {
		t.Fatalf("visits %v, want %v", *log, want)
	}
	if l.Outcome() != OutcomeNone || l.Sweeps() != 2 {
		t.Fatalf("outcome %s after %d sweeps, want none after 2", l.Outcome(), l.Sweeps())
	}
}

// TestClassifyPrecedence pins the one outcome precedence.
func TestClassifyPrecedence(t *testing.T) {
	for _, tc := range []struct {
		c, d, to, s bool
		want        Outcome
	}{
		{true, true, true, true, OutcomeCompleted},
		{false, true, true, true, OutcomeDeadlocked},
		{false, false, true, true, OutcomeTimedOut},
		{false, false, false, true, OutcomeStopped},
		{false, false, false, false, OutcomeNone},
	} {
		if got := Classify(tc.c, tc.d, tc.to, tc.s); got != tc.want {
			t.Errorf("Classify(%v,%v,%v,%v) = %s, want %s", tc.c, tc.d, tc.to, tc.s, got, tc.want)
		}
	}
}

// TestRecordAfterStopIsNotMaxEvents: a primitive recorded after a timeout
// stopped the world — a runner that passed its stop check just before the
// timer fired — reaches the MaxEvents budget without becoming the stop
// cause: the run is timed out, not MaxEvents-stopped.
func TestRecordAfterStopIsNotMaxEvents(t *testing.T) {
	med := medium.New(medium.Config{})
	defer med.Close()
	w := newWorld(1, med, 1)
	w.halt(OutcomeTimedOut)
	w.record(1, lotos.Event{Name: "a", Place: 1})
	res := w.snapshot(nil)
	if !res.TimedOut || res.Stopped || len(res.Trace) != 1 {
		t.Fatalf("timedOut=%v stopped=%v trace=%d, want a timed-out run with the late event kept",
			res.TimedOut, res.Stopped, len(res.Trace))
	}
	if res.Outcome() != OutcomeTimedOut {
		t.Fatalf("outcome %s, want timed-out", res.Outcome())
	}
}
