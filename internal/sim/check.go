package sim

import (
	"fmt"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// CheckTrace verifies that a simulation result's observable trace is a weak
// trace of the service specification: the global ordering of service
// primitives produced by the distributed entities must be one the service
// allows. For completed runs the trace must moreover be extendable by
// successful termination.
//
// The service state space is explored to exactly the observable depth
// needed (trace length + 1), so the check is sound for recursive,
// infinite-state services as well.
func CheckTrace(service *lotos.Spec, res *Result, maxStates int) error {
	depth := len(res.Trace) + 2
	g, err := lts.ExploreSpec(service, lts.Limits{MaxObsDepth: depth, MaxStates: maxStates})
	if err != nil {
		return fmt.Errorf("sim: exploring service: %w", err)
	}
	trace := lts.JoinTrace(res.TraceStrings())
	if !lts.AcceptsTrace(g, trace) {
		return fmt.Errorf("sim: observed trace %q is not a service trace", trace)
	}
	if res.Completed {
		if !lts.AcceptsTrace(g, lts.AppendTrace(trace, "delta")) {
			return fmt.Errorf("sim: run terminated but service cannot terminate after %q", trace)
		}
	}
	return nil
}

// RunStats aggregates repeated randomized runs.
type RunStats struct {
	Runs       int
	Completed  int
	Deadlocked int
	TimedOut   int
	Stopped    int
	Events     int
	Sent       int
}

// RunMany performs n independent randomized runs with seeds seed0..seed0+n-1,
// checking every trace against the service. It fails fast on the first
// trace violation.
func RunMany(service *lotos.Spec, entities map[int]*lotos.Spec, cfg Config, n int, maxStates int) (RunStats, error) {
	var st RunStats
	base := cfg.Seed
	for i := 0; i < n; i++ {
		cfg.Seed = base + int64(i)
		// Medium and harness sub-seeds derive from the run seed (SubSeed),
		// so consecutive runs get disjoint streams without arithmetic here.
		cfg.Harness = nil // fresh seeded harness per run
		res, err := Run(entities, cfg)
		if err != nil {
			return st, err
		}
		if err := CheckTrace(service, res, maxStates); err != nil {
			return st, fmt.Errorf("seed %d: %w", cfg.Seed, err)
		}
		st.Runs++
		st.Events += len(res.Trace)
		st.Sent += res.Medium.Sent
		switch res.Outcome() {
		case OutcomeCompleted:
			st.Completed++
		case OutcomeDeadlocked:
			st.Deadlocked++
		case OutcomeTimedOut:
			st.TimedOut++
		case OutcomeStopped:
			st.Stopped++
		}
	}
	return st, nil
}
