package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
	"repro/internal/sim"
)

// fleetChecks is the number of admitted sessions one simulate-fleet pass
// replays and trace-checks.
const fleetChecks = 1000

// fleet is the set-up of simulate-fleet: the built cluster model and, per
// class, the analyzed service spec its sessions' traces are checked against
// and the class's (renamed) disabling primitives.
type fleet struct {
	model      *cluster.Model
	services   []*lotos.Spec
	interrupts [][]string
}

// setupFleet generates the seeded scenario, builds it (derivation and FSM
// compilation of every class) and derives each class's service for the
// trace checks. With a tracer, cluster.Build runs inside a span.
func setupFleet(seed int64, t *tracer) (*fleet, error) {
	sc, interrupts := fleetScenario(seed)
	f := &fleet{interrupts: interrupts}
	var err error
	t.do("cluster.build", func() { f.model, err = cluster.Build(sc) })
	t.add("cluster.builds", 1)
	if err != nil {
		return nil, err
	}
	for _, cs := range sc.Classes {
		sp, err := lotos.Parse(cs.Source)
		if err != nil {
			return nil, fmt.Errorf("class %s: %w", cs.Name, err)
		}
		d, err := core.Derive(sp, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("class %s: %w", cs.Name, err)
		}
		f.services = append(f.services, d.Service.Spec)
	}
	return f, nil
}

// admitted lists the sessions of a run that were admitted (rejected ones
// never ran and have no trace).
func admitted(res *cluster.Result) []cluster.SessionRecord {
	var out []cluster.SessionRecord
	for _, s := range res.Sessions {
		if s.Outcome != "rejected" {
			out = append(out, s)
		}
	}
	return out
}

// sample draws n sessions uniformly at random, with replacement.
func sample(rng *rand.Rand, recs []cluster.SessionRecord, n int) []cluster.SessionRecord {
	out := make([]cluster.SessionRecord, n)
	for i := range out {
		out[i] = recs[rng.IntN(len(recs))]
	}
	return out
}

// checkRun is the output check of one Model.Run: the run must admit
// sessions and reproduce the first run's fingerprint exactly (one seeded
// scenario is deterministic).
func checkRun(res *cluster.Result, first string) error {
	if res.Admitted == 0 {
		return fmt.Errorf("run admitted no sessions")
	}
	if fp := res.Fingerprint(); first != "" && fp != first {
		return fmt.Errorf("run fingerprint diverged from the first run's")
	}
	return nil
}

// checkSession is one timed simulate-fleet operation: replay a recorded
// session through the lockstep simulator (which verifies its trace digest,
// event count and outcome against the record), then check the replayed
// trace against the class's service with sim.CheckTrace. A replay error is
// returned as err; the trace check's verdict as rejected.
func (f *fleet) checkSession(rec cluster.SessionRecord) (res *sim.Result, rejected, err error) {
	res, err = f.model.ReplaySession(rec)
	if err != nil {
		return nil, nil, err
	}
	return res, sim.CheckTrace(lotos.CloneSpec(f.services[rec.ClassIdx]), res, 0), nil
}

// expectedTrace is the untimed expected-answer check of a session's trace
// check. Deadlocked sessions are outcomes, not failures: their traces are
// service traces like any other. A trace the service rejects is expected
// only from a disabling class, and only as the known interrupt race
// (EXPERIMENTS.md E11): the trace contains one of the class's disabling
// primitives and is a service trace up to and including the first of them.
// It reports whether the session was such a deviation.
func (f *fleet) expectedTrace(rec cluster.SessionRecord, res *sim.Result, rejected error) (deviation bool, err error) {
	if rejected == nil {
		return false, nil
	}
	trace := res.TraceStrings()
	first := -1
	for i := 0; i < len(trace) && first < 0; i++ {
		for _, intr := range f.interrupts[rec.ClassIdx] {
			if trace[i] == intr {
				first = i
			}
		}
	}
	if first < 0 {
		return false, rejected
	}
	g, err := lts.ExploreSpec(lotos.CloneSpec(f.services[rec.ClassIdx]), lts.Limits{MaxObsDepth: first + 2})
	if err != nil {
		return false, err
	}
	if !lts.AcceptsTrace(g, lts.JoinTrace(trace[:first+1])) {
		return false, fmt.Errorf("%w, and not as the interrupt race: its prefix through %s is no service trace", rejected, trace[first])
	}
	return true, nil
}

// tracedCheckSession is checkSession with spans: the replay, then the two
// halves of sim.CheckTrace — the bounded service exploration and the trace
// acceptor — re-issued as its public calls. It reports whether the trace
// was accepted.
func (f *fleet) tracedCheckSession(t *tracer, rec cluster.SessionRecord) (bool, error) {
	var (
		res *sim.Result
		err error
	)
	t.do("sim.replay", func() { res, err = f.model.ReplaySession(rec) })
	if err != nil {
		return false, err
	}
	var svc *lotos.Spec
	t.do("lotos.clone", func() { svc = lotos.CloneSpec(f.services[rec.ClassIdx]) })
	var g *lts.Graph
	t.do("lts.check_explore", func() {
		g, err = lts.ExploreSpec(svc, lts.Limits{MaxObsDepth: len(res.Trace) + 2})
	})
	if err != nil {
		return false, err
	}
	ok := false
	t.do("lts.accepts", func() {
		trace := lts.JoinTrace(res.TraceStrings())
		ok = lts.AcceptsTrace(g, trace)
		if ok && res.Completed {
			if trace != "" {
				trace += lts.TraceSep
			}
			ok = lts.AcceptsTrace(g, trace+"delta")
		}
	})
	return ok, nil
}

// runFleet runs simulate-fleet passes in a closed loop until the budget is
// spent: each pass, started by startPass, is one Model.Run followed by
// fleetChecks trace checks of sessions sampled from it, each timed in CPU
// time.
func runFleet(f *fleet, seed int64, budget time.Duration, r *runStats) {
	rng := newRNG(seed, streamSample)
	first := ""
	start := time.Now()
	for {
		r.startPass()
		t0 := time.Now()
		c0 := cpuTime()
		res, err := f.model.Run()
		run := cpuTime() - c0
		r.attempted++
		if err == nil {
			err = checkRun(res, first)
		}
		if err != nil {
			r.fail(fmt.Errorf("fleet run: %w", err))
			return
		}
		if first == "" {
			first = res.Fingerprint()
		}
		for _, rec := range sample(rng, admitted(res), fleetChecks) {
			c0 := cpuTime()
			sres, rejected, err := f.checkSession(rec)
			r.op(cpuTime() - c0)
			if err == nil {
				_, err = f.expectedTrace(rec, sres, rejected)
			}
			if err != nil {
				r.fail(fmt.Errorf("session %d (%s): %w", rec.ID, rec.Class, err))
			}
		}
		r.pass(run, time.Since(t0))
		if !r.more(start, budget) {
			return
		}
	}
}

// runFleetTraced is the traced counterpart of runFleet: every run and every
// check executes once untraced (the reference) and once traced, and the two
// must agree — identical fingerprints, identical acceptance.
func runFleetTraced(f *fleet, seed int64, budget time.Duration, t *tracer, r *runStats) (untraced, traced float64) {
	rng := newRNG(seed, streamSample)
	start := time.Now()
	for {
		passStart := time.Now()
		ref, err := f.model.Run()
		untraced += float64(time.Since(passStart).Nanoseconds())
		if err != nil {
			r.attempted++
			r.fail(fmt.Errorf("fleet run: %w", err))
			return untraced, traced
		}
		var res *cluster.Result
		root := t.beginOp()
		t.do("cluster.run", func() { res, err = f.model.Run() })
		t.end(root)
		run := time.Duration(t.spans[root].dur())
		traced += float64(run)
		r.attempted++
		if err == nil {
			err = checkRun(res, ref.Fingerprint())
		}
		if err != nil {
			r.fail(fmt.Errorf("traced fleet run: %w", err))
			return untraced, traced
		}
		t.add("cluster.runs", 1)
		t.add("cluster.events", float64(res.Events))
		t.add("cluster.arrivals", float64(res.Arrivals))
		t.add("cluster.admitted", float64(res.Admitted))
		t.add("cluster.completed", float64(res.Completed))
		for _, rec := range sample(rng, admitted(res), fleetChecks) {
			t0 := time.Now()
			sres, rejected, refErr := f.checkSession(rec)
			untraced += float64(time.Since(t0).Nanoseconds())
			root := t.beginOp()
			ok, err := f.tracedCheckSession(t, rec)
			t.end(root)
			traced += float64(t.spans[root].dur())
			r.op(time.Duration(t.spans[root].dur()))
			if err == nil && refErr == nil && ok != (rejected == nil) {
				err = fmt.Errorf("traced check accepted=%v, sim.CheckTrace accepted=%v", ok, rejected == nil)
			}
			if err == nil {
				err = refErr
			}
			if err == nil {
				var dev bool
				dev, err = f.expectedTrace(rec, sres, rejected)
				if dev {
					t.add("sim.deviations", 1)
				}
			}
			if err != nil {
				r.fail(fmt.Errorf("session %d (%s): %w", rec.ID, rec.Class, err))
			}
		}
		r.pass(run, time.Since(passStart))
		if !r.more(start, budget) {
			return untraced, traced
		}
	}
}
