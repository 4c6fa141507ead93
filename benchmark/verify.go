package main

import (
	"fmt"
	"reflect"
	"time"

	protoderive "repro"
	"repro/internal/attr"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// verifyCfg is one verification's bounds: the verify-deep settings, or the
// CLI defaults under one matrix cell's capacity and fault model.
type verifyCfg struct {
	Cap        int
	ObsDepth   int
	MaxStates  int
	Faults     string
	Reductions string
}

var deepCfg = verifyCfg{Cap: 1, ObsDepth: 4, MaxStates: 1000000, Reductions: "por+symmetry"}

// The CLI defaults (cmd/verify with no bound flags): observable depth 8,
// the 20,000-state default cap, the default reduction set.
const (
	cliObsDepth  = compose.DefaultObsDepth
	cliMaxStates = lts.DefaultMaxStates
)

func cellCfg(c cell) verifyCfg {
	return verifyCfg{Cap: c.Cap, ObsDepth: cliObsDepth, MaxStates: cliMaxStates, Faults: c.Faults}
}

// outcome is what one verification reports: the fields the expected
// answers, the seed-invariance test and the traced-run fidelity check
// compare.
type outcome struct {
	Ok             bool
	Complete       bool
	TracesEqual    bool
	Deadlocks      int
	ServiceStates  int
	ComposedStates int
	Witness        string // witness kind, "" when none was extracted
}

// facadeVerify is one untraced operation: parse → derive → Verify through
// the public facade, exactly as the verify CLI runs it.
func facadeVerify(src string, c verifyCfg) (outcome, *protoderive.Protocol, *protoderive.VerifyReport, error) {
	svc, err := protoderive.ParseService(src)
	if err != nil {
		return outcome{}, nil, nil, err
	}
	proto, err := svc.Derive()
	if err != nil {
		return outcome{}, nil, nil, err
	}
	fm, err := protoderive.ParseFaultModel(c.Faults)
	if err != nil {
		return outcome{}, nil, nil, err
	}
	rep, err := proto.Verify(&protoderive.VerifyOptions{
		ChannelCap: c.Cap,
		ObsDepth:   c.ObsDepth,
		MaxStates:  c.MaxStates,
		Faults:     fm,
		Reductions: c.Reductions,
	})
	if err != nil {
		return outcome{}, nil, nil, err
	}
	o := outcome{
		Ok:             rep.Ok,
		Complete:       rep.Complete,
		TracesEqual:    rep.TracesEqual,
		Deadlocks:      rep.Deadlocks,
		ServiceStates:  rep.ServiceStates,
		ComposedStates: rep.ComposedStates,
	}
	if rep.Witness != nil {
		o.Witness = rep.Witness.Kind
	}
	return o, proto, rep, nil
}

// checkVerdict compares an outcome with its expected answer and, for a
// failed verdict, replays the witness through the concrete runtime: the
// replayed trace must equal the witness trace, and a deadlock witness must
// deadlock.
func checkVerdict(got outcome, want expect, proto *protoderive.Protocol, rep *protoderive.VerifyReport) error {
	if got.Ok != want.Ok || got.Witness != want.Witness {
		return fmt.Errorf("verdict ok=%v witness=%q, want ok=%v witness=%q", got.Ok, got.Witness, want.Ok, want.Witness)
	}
	if want.Incomplete && got.Complete {
		return fmt.Errorf("exploration complete, want truncated")
	}
	w := rep.Witness
	if w == nil {
		return nil
	}
	res, err := proto.Replay(w)
	if err != nil {
		return fmt.Errorf("witness replay: %w", err)
	}
	if !reflect.DeepEqual(res.Trace, w.Trace) && !(len(res.Trace) == 0 && len(w.Trace) == 0) {
		return fmt.Errorf("replayed trace %q, witness trace %q", res.Trace, w.Trace)
	}
	if w.Kind == compose.WitnessDeadlock && !res.Deadlocked {
		return fmt.Errorf("deadlock witness did not deadlock on replay")
	}
	return nil
}

// tracedVerify re-issues the facade's parse → derive → Verify as the
// sequence of public calls compose.Verify makes (monolithic path), with a
// span around each call into a layer and counts recorded at the same
// boundaries. Witness extraction stops at the kind: the step annotation
// compose performs on the extracted path is internal to it.
func tracedVerify(t *tracer, src string, c verifyCfg) (outcome, error) {
	var (
		sp  *lotos.Spec
		d   *core.Derivation
		err error
	)
	t.do("lotos.parse", func() { sp, err = lotos.Parse(src) })
	if err != nil {
		return outcome{}, err
	}
	t.do("attr.validate", func() { _, err = attr.Validate(lotos.CloneSpec(sp)) })
	if err != nil {
		return outcome{}, err
	}
	t.do("core.derive", func() { d, err = core.Derive(sp, core.Options{Interrupt: core.InterruptBroadcast}) })
	if err != nil {
		return outcome{}, err
	}
	t.add("core.messages", float64(d.SendCount()))
	fm, err := compose.ParseFaultModel(c.Faults)
	if err != nil {
		return outcome{}, err
	}
	red, err := compose.ParseReductions(c.Reductions)
	if err != nil {
		return outcome{}, err
	}
	var (
		svc  *lotos.Spec
		ents map[int]*lotos.Spec
	)
	t.do("lotos.clone", func() {
		svc = lotos.CloneSpec(d.Service.Spec)
		ents = make(map[int]*lotos.Spec, len(d.Entities))
		for p, e := range d.Entities {
			ents[p] = lotos.CloneSpec(e)
		}
	})
	opts := compose.VerifyOptions{
		ChannelCap: c.Cap,
		ObsDepth:   c.ObsDepth,
		MaxStates:  c.MaxStates,
		Faults:     fm,
		Reductions: red,
	}
	return tracedMonolithic(t, svc, ents, opts)
}

// tracedMonolithic mirrors compose's monolithic verification: explore the
// service and the product, compare bounded weak traces, count deadlocks,
// decide weak bisimulation on complete graphs, re-verify a symmetry-reduced
// failure without symmetry, and extract the witness in verdict priority.
func tracedMonolithic(t *tracer, service *lotos.Spec, entities map[int]*lotos.Spec, opts compose.VerifyOptions) (outcome, error) {
	if opts.ObsDepth <= 0 {
		opts.ObsDepth = compose.DefaultObsDepth
	}
	if opts.TraceDiffLimit <= 0 {
		opts.TraceDiffLimit = compose.DefaultTraceDiffLimit
	}
	lim := lts.Limits{MaxStates: opts.MaxStates, MaxObsDepth: opts.ObsDepth}
	var (
		sg, cg *lts.Graph
		sys    *compose.System
		err    error
	)
	t.do("lts.service_explore", func() { sg, err = lts.ExploreSpec(service, lim) })
	if err != nil {
		return outcome{}, err
	}
	t.add("lts.service_states", float64(sg.NumStates()))
	t.do("compose.new", func() {
		sys, err = compose.New(entities, compose.Config{
			ChannelCap: opts.ChannelCap,
			Limits:     lim,
			Faults:     opts.Faults,
			Reductions: opts.Reductions,
		})
	})
	if err != nil {
		return outcome{}, err
	}
	t.do("compose.explore", func() { cg, err = sys.Explore() })
	if err != nil {
		return outcome{}, err
	}
	ri := sys.ReductionInfo()
	t.add("compose.explorations", 1)
	t.add("compose.states", float64(cg.NumStates()))
	t.add("compose.transitions", float64(cg.NumTransitions()))
	t.add("compose.ample_hits", float64(ri.AmpleHits))
	t.add("compose.orbits_collapsed", float64(ri.OrbitsCollapsed))
	if cg.Truncated {
		t.add("compose.truncated", 1)
	}

	o := outcome{ServiceStates: sg.NumStates(), ComposedStates: cg.NumStates()}
	var onlyService, onlyComposed []string
	t.do("equiv.trace", func() {
		o.TracesEqual = equiv.WeakTraceEquivalent(sg, cg, opts.ObsDepth)
		if !o.TracesEqual {
			onlyService, onlyComposed = equiv.TraceDiff(sg, cg, opts.ObsDepth, opts.TraceDiffLimit)
		}
	})
	var dead []int
	t.do("lts.deadlocks", func() { dead = cg.Deadlocks() })
	o.Deadlocks = len(dead)
	o.Complete = !sg.Truncated && !cg.Truncated
	bisim := false
	if o.Complete {
		var st equiv.Stats
		t.do("equiv.bisim", func() { bisim, st = equiv.WeakBisimilarStats(sg, cg) })
		t.add("equiv.bisim_checks", 1)
		t.add("equiv.tau_sccs", float64(st.TauSCCs))
		t.add("equiv.saturation_edges", float64(st.SaturationEdges))
		t.add("equiv.refine_rounds", float64(st.RefinementRounds))
	}
	o.Ok = o.TracesEqual && o.Deadlocks == 0 && (!o.Complete || bisim)

	if ri.SymmetryColumns > 0 && !o.Ok {
		red := opts
		red.Reductions = opts.Reductions.Without(compose.RedSymmetry)
		return tracedMonolithic(t, service, entities, red)
	}
	if o.Ok {
		return o, nil
	}
	maxObs := opts.ObsDepth
	if o.Complete {
		maxObs = 0
	}
	t.do("equiv.witness", func() {
		if o.Deadlocks > 0 {
			isDead := make(map[int]bool, len(dead))
			for _, s := range dead {
				isDead[s] = true
			}
			if _, ok := cg.ShortestPathTo(func(s int) bool { return isDead[s] }); ok {
				o.Witness = compose.WitnessDeadlock
				return
			}
		}
		if len(onlyComposed) > 0 {
			if _, ok := equiv.DivergentPath(cg, sg, maxObs); ok {
				o.Witness = compose.WitnessExtraTrace
				return
			}
		}
		if len(onlyService) > 0 {
			if missing, ok := equiv.ShortestDivergentTrace(sg, cg, maxObs); ok {
				equiv.TracePrefixPath(cg, missing)
				o.Witness = compose.WitnessMissingTrace
			}
		}
	})
	if o.Witness != "" {
		t.add("equiv.witnesses", 1)
	}
	return o, nil
}

// runVerifyOps runs verify operations in a closed loop until the budget is
// spent: each operation starts after the previous one completes and is
// timed in CPU time. The loop runs whole passes of batch operations, so
// every input of a pass is measured equally often, each pass started by
// startPass, and starts a pass only while it would end within half a pass
// of the deadline. next returns the input of operation k.
func runVerifyOps(budget time.Duration, batch int, next func(k int) (string, verifyCfg, expect), r *runStats) {
	start := time.Now()
	for k := 0; ; {
		r.startPass()
		batchStart := time.Now()
		var timed time.Duration
		for i := 0; i < batch; i, k = i+1, k+1 {
			src, c, want := next(k)
			c0 := cpuTime()
			got, proto, rep, err := facadeVerify(src, c)
			d := cpuTime() - c0
			r.op(d)
			timed += d
			if err == nil {
				err = checkVerdict(got, want, proto, rep)
			}
			if err != nil {
				r.fail(fmt.Errorf("operation %d: %w", k, err))
			}
		}
		r.pass(timed, time.Since(batchStart))
		if !r.more(start, budget) {
			return
		}
	}
}

// runVerifyTraced is the traced counterpart of runVerifyOps: every
// operation runs once through the facade (the untraced reference the
// overhead is measured against, checked against its expected answer) and
// once traced, and the two must agree on verdict, state counts and witness
// kind.
func runVerifyTraced(budget time.Duration, batch int, next func(k int) (string, verifyCfg, expect), t *tracer, r *runStats) (untraced, traced float64) {
	start := time.Now()
	for k := 0; ; {
		batchStart := time.Now()
		var timed time.Duration
		for i := 0; i < batch; i, k = i+1, k+1 {
			src, c, want := next(k)
			t0 := time.Now()
			ref, proto, rep, err := facadeVerify(src, c)
			untraced += float64(time.Since(t0).Nanoseconds())
			if err == nil {
				err = checkVerdict(ref, want, proto, rep)
			}
			root := t.beginOp()
			got, terr := tracedVerify(t, src, c)
			t.end(root)
			d := time.Duration(t.spans[root].dur())
			traced += float64(d)
			r.op(d)
			timed += d
			switch {
			case err != nil:
				r.fail(fmt.Errorf("operation %d: %w", k, err))
			case terr != nil:
				r.fail(fmt.Errorf("operation %d traced: %w", k, terr))
			case got != ref:
				r.fail(fmt.Errorf("operation %d: traced run reports %+v, facade %+v", k, got, ref))
			}
		}
		r.pass(timed, time.Since(batchStart))
		if !r.more(start, budget) {
			return untraced, traced
		}
	}
}
