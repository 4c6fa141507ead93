// Package protoderive derives protocol entity specifications from formal
// communication-service specifications, implementing the algorithm of
// "Deriving Protocol Specifications from Service Specifications" (Bochmann
// & Gotzhein, SIGCOMM '86) in its extended Basic-LOTOS form (Kant,
// Higashino & Bochmann): all operators — action prefix ";", choice "[]",
// the parallel operators "|||", "|[G]|", "||", enabling ">>", disabling
// "[>" — and unrestricted process invocation and recursion.
//
// The workflow is three calls:
//
//	svc, err := protoderive.ParseService(src)   // parse + validate (R1-R3)
//	proto, err := svc.Derive()                  // T_p for every place
//	report, err := proto.Verify(nil)            // S ≈ hide G in (T_1 ||| ... |[G]| Medium)
//
// and Simulate executes the derived entities concurrently over a reliable
// FIFO medium, checking every observed trace against the service.
//
// The package is a facade over the implementation packages under internal/:
// lotos (specification language), attr (SP/EP/AP attribute evaluation), apf
// (action-prefix-form normalization), core (the derivation algorithm and
// baselines), lts/equiv/compose (semantics and verification) and medium/sim
// (the concurrent runtime).
package protoderive

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
	"repro/internal/sim"
	"repro/internal/wire/conformance"
)

// SpecError is the structured error the facade returns for every failure
// caused by the input specification: lexical and syntax errors, name
// resolution failures, service-event well-formedness, and violations of the
// paper's restrictions R1-R3. Long-running callers (the pgd daemon, editor
// integrations) match it with errors.As to separate bad-input failures from
// internal ones and to report source positions.
type SpecError struct {
	// Line and Col locate the error in the source text (1-based). Both are
	// zero when the failure has no single position (e.g. a restriction
	// violation, which is located by node instead).
	Line, Col int
	// Rule names the violated restriction ("R1", "R2", "R3", "APF") for
	// restriction errors; empty otherwise.
	Rule string
	// Msg is the bare description, without any position prefix.
	Msg string

	err error // underlying cause, for Unwrap
}

// Error implements the error interface. The rendering matches the
// underlying packages' text, so wrapping is invisible to string matching.
func (e *SpecError) Error() string {
	if e.err != nil {
		return e.err.Error()
	}
	if e.Line > 0 {
		return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return e.Msg
}

// Unwrap returns the underlying error.
func (e *SpecError) Unwrap() error { return e.err }

// specErr wraps an input-caused error into a *SpecError, lifting the source
// position of syntax errors and the rule of restriction violations into the
// structured fields. A nil input stays nil.
func specErr(err error) error {
	if err == nil {
		return err
	}
	se := &SpecError{Msg: err.Error(), err: err}
	var syn *lotos.SyntaxError
	if errors.As(err, &syn) {
		se.Line, se.Col, se.Msg = syn.Line, syn.Col, syn.Msg
	}
	var re *attr.RestrictionError
	if errors.As(err, &re) {
		se.Rule = re.Rule
	}
	return se
}

// guard converts a panic escaping a facade entry point into an error: the
// facade's contract is that malformed input and internal failures surface
// as errors, never as panics, so resident callers (pgd) stay up. The
// recovered value is wrapped, not rethrown; the panic site is a bug and the
// message says so.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("protoderive: internal error (please report): %v", r)
	}
}

// Service is a parsed and validated communication-service specification.
type Service struct {
	spec *lotos.Spec
	info *attr.Info
}

// ParseService parses a service specification and validates it: syntax,
// name resolution, service-event well-formedness, and the paper's
// restrictions R1 (locally decided choices), R2 (equal ending places) and
// R3 (disabling starts within the normal part's ending places).
func ParseService(src string) (svc *Service, err error) {
	defer guard(&err)
	sp, err := lotos.Parse(src)
	if err != nil {
		return nil, specErr(err)
	}
	// Validate on a clone: attribute analysis numbers the tree in place.
	info, err := attr.Validate(lotos.CloneSpec(sp))
	if err != nil {
		return nil, specErr(err)
	}
	return &Service{spec: sp, info: info}, nil
}

// MustParseService is ParseService panicking on error, for examples and
// tests with literal specifications.
func MustParseService(src string) *Service {
	s, err := ParseService(src)
	if err != nil {
		panic(err)
	}
	return s
}

// Places returns the service access points (the attribute ALL), sorted.
func (s *Service) Places() []int { return s.info.All.Sorted() }

// Primitives returns the distinct service primitives, rendered, sorted by
// place then name.
func (s *Service) Primitives() []string {
	evs := lotos.ServiceEvents(s.spec)
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.String()
	}
	return out
}

// String renders the (pretty-printed) specification.
func (s *Service) String() string { return s.spec.String() }

// AttributeTable renders the node numbering and the synthesized attributes
// SP/EP/AP of every node — the textual form of the paper's Figure 4.
func (s *Service) AttributeTable() string { return s.info.Table() }

// Traces enumerates the service's weak traces up to the given number of
// observable events (successful termination appears as "delta").
func (s *Service) Traces(depth int) (out []string, err error) {
	defer guard(&err)
	g, err := lts.ExploreSpec(lotos.CloneSpec(s.spec), lts.Limits{MaxObsDepth: depth})
	if err != nil {
		return nil, err
	}
	return lts.WeakTraces(g, depth), nil
}

// ExploreOptions tunes Explore. The zero value (or nil) selects defaults:
// observable depth 8 and the default state cap.
type ExploreOptions struct {
	// ObsDepth bounds exploration by observable depth (default 8).
	ObsDepth int
	// MaxStates caps the number of explored states.
	MaxStates int
	// Traces includes the weak trace set up to ObsDepth in the report.
	Traces bool
}

// ExploreReport summarizes a bounded exploration of a service's labelled
// transition system.
type ExploreReport struct {
	// States and Transitions are the explored sizes.
	States, Transitions int
	// Deadlocks counts states with no outgoing transition that were not
	// reached by successful termination.
	Deadlocks int
	// Truncated reports that a limit stopped exploration before closure.
	Truncated bool
	// ObsDepth is the observable bound the exploration ran with.
	ObsDepth int
	// Traces is the weak trace set up to ObsDepth (only when requested).
	Traces []string `json:",omitempty"`
}

// Explore explores the service's labelled transition system up to the given
// bounds and reports its size, deadlocks and (optionally) weak traces. It
// is the facade over internal/lts for callers — like the pgd daemon — that
// need exploration of a spec without deriving a protocol from it.
func (s *Service) Explore(opts *ExploreOptions) (rep *ExploreReport, err error) {
	defer guard(&err)
	return exploreSpec(s.spec, opts)
}

// ExploreSource parses and explores any specification the grammar accepts —
// including ones that are not valid *service* specifications (hide, message
// interactions, restriction violations), which ParseService rejects. Only
// syntax and name resolution are checked.
func ExploreSource(src string, opts *ExploreOptions) (rep *ExploreReport, err error) {
	defer guard(&err)
	sp, err := lotos.Parse(src)
	if err != nil {
		return nil, specErr(err)
	}
	return exploreSpec(sp, opts)
}

// NormalizeSource parses any grammatical specification and returns its
// pretty-printed canonical form — the normalization the pgd daemon's
// content-addressed cache keys on.
func NormalizeSource(src string) (out string, err error) {
	defer guard(&err)
	sp, err := lotos.Parse(src)
	if err != nil {
		return "", specErr(err)
	}
	return sp.String(), nil
}

func exploreSpec(sp *lotos.Spec, opts *ExploreOptions) (*ExploreReport, error) {
	var o ExploreOptions
	if opts != nil {
		o = *opts
	}
	if o.ObsDepth <= 0 {
		o.ObsDepth = compose.DefaultObsDepth
	}
	g, err := lts.ExploreSpec(lotos.CloneSpec(sp), lts.Limits{
		MaxObsDepth: o.ObsDepth,
		MaxStates:   o.MaxStates,
	})
	if err != nil {
		return nil, specErr(err)
	}
	rep := &ExploreReport{
		States:      g.NumStates(),
		Transitions: g.NumTransitions(),
		Deadlocks:   len(g.Deadlocks()),
		Truncated:   g.Truncated,
		ObsDepth:    o.ObsDepth,
	}
	if o.Traces {
		rep.Traces = lts.WeakTraces(g, o.ObsDepth)
	}
	return rep, nil
}

// DeriveOptions tunes Derive.
type DeriveOptions struct {
	// KeepRedundant keeps the raw Table-3 output (no empty-elimination).
	KeepRedundant bool
	// Dialect1986 restricts the input to the original SIGCOMM'86 operator
	// subset (";", "[]", "|||", no processes).
	Dialect1986 bool
	// InterruptHandshake derives the Section-3.3 "alternative
	// implementation" of disabling: a request/acknowledge handshake makes
	// the interrupt trace-faithful to the LOTOS semantics (for
	// non-terminating normal parts) at 2(n-1) messages per interrupt.
	InterruptHandshake bool
}

// Protocol is a derived set of protocol entity specifications.
type Protocol struct {
	d *core.Derivation

	// arts, when set (UseArtifacts), is the shared content-addressed
	// artifact cache: compositional verification recalls entity quotients
	// through it, and fleet compilation recalls per-entity machines.
	arts *ArtifactCache

	// Compiled machine fleets, cached per state cap: compilation explores
	// and minimizes every entity, so repeated Simulate/ReplayWith calls on
	// one Protocol — the steady state of the daemon — must not redo it.
	// Machines are immutable, so a cached fleet is safe to share across
	// concurrent runs.
	fleetMu sync.Mutex
	fleets  map[int]*fsm.Fleet
}

// fleet returns the protocol's compiled machine fleet for the given state
// cap (0 = default), compiling it on first use.
func (p *Protocol) fleet(maxStates int) *fsm.Fleet {
	if maxStates <= 0 {
		maxStates = fsm.DefaultMaxStates
	}
	p.fleetMu.Lock()
	defer p.fleetMu.Unlock()
	if f := p.fleets[maxStates]; f != nil {
		return f
	}
	// fsm.Compile clones each entity before exploring, so the shared trees
	// are not mutated.
	var f *fsm.Fleet
	if p.arts != nil {
		f = p.arts.fleetFor(p.d.Entities, maxStates)
	} else {
		f = fsm.CompileEntities(p.d.Entities, fsm.Config{MaxStates: maxStates})
	}
	if p.fleets == nil {
		p.fleets = map[int]*fsm.Fleet{}
	}
	p.fleets[maxStates] = f
	return f
}

// Derive runs the derivation algorithm with default options.
func (s *Service) Derive() (*Protocol, error) {
	return s.DeriveWithOptions(DeriveOptions{})
}

// DeriveWithOptions runs the derivation algorithm.
func (s *Service) DeriveWithOptions(opts DeriveOptions) (proto *Protocol, err error) {
	defer guard(&err)
	mode := core.InterruptBroadcast
	if opts.InterruptHandshake {
		mode = core.InterruptHandshake
	}
	d, err := core.Derive(s.spec, core.Options{
		KeepRedundant: opts.KeepRedundant,
		Dialect1986:   opts.Dialect1986,
		Interrupt:     mode,
	})
	if err != nil {
		return nil, specErr(err)
	}
	return &Protocol{d: d}, nil
}

// Places returns the protocol's places, sorted.
func (p *Protocol) Places() []int { return append([]int(nil), p.d.Places...) }

// EntityText renders the derived entity specification for one place.
func (p *Protocol) EntityText(place int) string {
	e := p.d.Entity(place)
	if e == nil {
		return ""
	}
	return e.String()
}

// Render renders all entities, one per place, in place order.
func (p *Protocol) Render() string { return p.d.Render() }

// MessageCount returns the total number of send interactions across the
// derived entities (the static message complexity of Section 4.3).
func (p *Protocol) MessageCount() int { return p.d.SendCount() }

// Complexity is the per-operator message-complexity report of Section 4.3.
type Complexity struct {
	Places        int
	Seq           int
	Choice        int
	DisableRel    int
	DisableInterr int
	Instantiate   int
}

// Total returns the total message count.
func (c Complexity) Total() int {
	return c.Seq + c.Choice + c.DisableRel + c.DisableInterr + c.Instantiate
}

// Complexity computes the per-operator message-complexity breakdown.
func (p *Protocol) Complexity() Complexity {
	c := core.MessageComplexityMode(p.d.Service, p.d.Opts.Interrupt)
	return Complexity{
		Places:        c.Places,
		Seq:           c.Seq,
		Choice:        c.Choice,
		DisableRel:    c.DisableRel,
		DisableInterr: c.DisableInterr,
		Instantiate:   c.Instantiate,
	}
}

// ComplexityTable renders the Section 4.3 report.
func (p *Protocol) ComplexityTable() string {
	return core.MessageComplexityMode(p.d.Service, p.d.Opts.Interrupt).String()
}

// FaultModel selects medium faults for Verify to compose into the product
// exploration: message loss, duplication, and adjacent reordering. The zero
// value is the paper's reliable FIFO medium.
type FaultModel struct {
	Loss        bool `json:"loss,omitempty"`
	Duplication bool `json:"duplication,omitempty"`
	Reorder     bool `json:"reorder,omitempty"`
}

// String renders the model canonically ("reliable", "loss", "loss+dup", …).
func (f FaultModel) String() string { return f.compose().String() }

// Any reports whether at least one fault is enabled.
func (f FaultModel) Any() bool { return f.Loss || f.Duplication || f.Reorder }

func (f FaultModel) compose() compose.FaultModel {
	return compose.FaultModel{Loss: f.Loss, Duplication: f.Duplication, Reorder: f.Reorder}
}

// ParseFaultModel parses one fault-model spec: "reliable" (or "none", ""),
// or a "+"-joined combination of "loss", "dup", "reorder".
func ParseFaultModel(s string) (FaultModel, error) {
	f, err := compose.ParseFaultModel(s)
	if err != nil {
		return FaultModel{}, specErr(err)
	}
	return FaultModel{Loss: f.Loss, Duplication: f.Duplication, Reorder: f.Reorder}, nil
}

// CanonicalReductions parses a reduction-set name (see
// VerifyOptions.Reductions) and returns its canonical form, so spelling
// variants ("sym" vs "symmetry", reordered tokens) share a daemon cache key
// while distinct sets never collide.
func CanonicalReductions(s string) (string, error) {
	r, err := compose.ParseReductions(s)
	if err != nil {
		return "", specErr(err)
	}
	return r.String(), nil
}

// ParseFaultModels parses a comma-separated list of fault-model specs, e.g.
// "loss,dup,loss+reorder". Duplicates are collapsed.
func ParseFaultModels(s string) ([]FaultModel, error) {
	fs, err := compose.ParseFaultModels(s)
	if err != nil {
		return nil, specErr(err)
	}
	out := make([]FaultModel, len(fs))
	for i, f := range fs {
		out[i] = FaultModel{Loss: f.Loss, Duplication: f.Duplication, Reorder: f.Reorder}
	}
	return out, nil
}

// VerifyOptions tunes Verify. The zero value (or nil) selects defaults:
// channel capacity 1, observable depth 8, default state cap, serial
// exploration, reliable medium.
type VerifyOptions struct {
	ChannelCap int
	ObsDepth   int
	MaxStates  int
	// Parallel derives each level of the composed product's breadth-first
	// exploration on a pool of workers (one per CPU by default). The
	// explored graph, and so the verdict, is unchanged, but large
	// compositions finish faster on multi-core hosts.
	Parallel bool
	// Workers overrides the parallel worker-pool size (0 = GOMAXPROCS).
	// Ignored unless Parallel is set.
	Workers int
	// Faults composes medium faults into the product (zero = reliable).
	Faults FaultModel
	// TraceDiffLimit caps the diagnostic example traces collected per side
	// on a failed trace comparison (default 5).
	TraceDiffLimit int
	// Compositional verifies quotient-before-compose: each entity LTS is
	// minimized with the congruence-preserving weak-bisimulation quotient
	// before the product is built. Verdicts match the monolithic path (a
	// non-conformant or state-capped compositional attempt re-verifies
	// monolithically, counterexample included); the report carries the
	// per-phase pipeline numbers in VerifyReport.Compositional.
	Compositional bool
	// Artifacts, with Compositional, recalls entity quotients from a shared
	// content-addressed cache instead of rebuilding them. Nil falls back to
	// the protocol's attached cache (UseArtifacts), then to uncached builds.
	Artifacts *ArtifactCache
	// Reductions names the product exploration's reduction set: "" or
	// "default" (partial-order reduction only), "none", "all", or "+"-joined
	// names from "por", "symmetry", "spill". Every reduction is verdict-
	// preserving — a symmetry-reduced failure is automatically re-verified
	// unreduced so counterexamples replay against the concrete product.
	Reductions string
	// SpillBudget bounds the in-memory visited index (bytes) when the
	// reduction set includes "spill" (0 = the exploration default).
	SpillBudget int64
}

// workers maps Parallel and Workers onto the explorer's worker count: 0
// (inline derivation) unless Parallel is set, then Workers or, when that
// is 0, one worker per CPU.
func (o *VerifyOptions) workers() int {
	switch {
	case !o.Parallel:
		return 0
	case o.Workers > 0:
		return o.Workers
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// VerifyReport is the verification verdict for the Section-5 correctness
// relation.
type VerifyReport struct {
	// Ok is the overall verdict.
	Ok bool
	// Complete reports full state-space exploration; then WeakBisimilar is
	// the exact ≈ verdict. Otherwise the bounded trace check applies.
	Complete      bool
	WeakBisimilar bool
	// TracesEqual reports weak-trace equality up to ObsDepth.
	TracesEqual bool
	ObsDepth    int
	// Deadlocks counts deadlocked composed states.
	Deadlocks int
	// ServiceStates / ComposedStates are exploration sizes.
	ServiceStates, ComposedStates int
	// Summary is a human-readable report.
	Summary string
	// Faults is the canonical name of the fault model the verification ran
	// under ("reliable" for the paper's medium).
	Faults string
	// Witness is the shortest counterexample for a failed verdict: a
	// concrete transition path from the composed initial state to the
	// divergence, replayable with Protocol.Replay. Nil when Ok (and for
	// the rare bisimulation-only failure with no path-shaped witness).
	Witness *Witness
	// Equiv reports the equivalence engine's work for the bisimulation
	// check. Nil when the check was skipped (truncated state space — the
	// verdict then rests on the bounded weak-trace comparison).
	Equiv *EquivStats
	// Compositional reports the quotient-before-compose pipeline (entity
	// quotient sizes, per-phase times, artifact reuse, fallback reason).
	// Nil unless the verification ran with VerifyOptions.Compositional.
	Compositional *CompositionalReport `json:",omitempty"`
	// Reduction reports the state-space reductions the product exploration
	// applied and the work they did (symmetry orbits collapsed, ample-set
	// hits, visited-index runs spilled to disk).
	Reduction *ReductionReport `json:",omitempty"`
}

// ReductionReport mirrors the composed exploration's reduction statistics:
// which reductions were in force, how much each one cut, and whether a
// symmetry-reduced failure fell back to an unreduced re-verification for its
// concrete counterexample.
type ReductionReport struct {
	// Enabled is the canonical reduction-set name ("por", "por+symmetry", …).
	Enabled string `json:"enabled"`
	// SymmetryColumns is the number of interchangeable |||-instance columns
	// detected (0 when symmetry was off or did not apply).
	SymmetryColumns int `json:"symmetryColumns,omitempty"`
	// OrbitsCollapsed counts states folded onto another orbit representative.
	OrbitsCollapsed int64 `json:"orbitsCollapsed,omitempty"`
	// AmpleHits counts states reduced to one entity's ample transition set.
	AmpleHits int64 `json:"ampleHits,omitempty"`
	// SpillRuns / SpilledBytes / PeakMemBytes describe the out-of-core
	// visited index (zero when nothing spilled).
	SpillRuns    int   `json:"spillRuns,omitempty"`
	SpilledBytes int64 `json:"spilledBytes,omitempty"`
	PeakMemBytes int64 `json:"peakMemBytes,omitempty"`
	// Fallback records why the verdict was re-derived without symmetry.
	Fallback string `json:"fallback,omitempty"`
}

// reductionReport mirrors compose reduction stats into the facade type.
func reductionReport(ri *compose.ReductionStats) *ReductionReport {
	if ri == nil {
		return nil
	}
	return &ReductionReport{
		Enabled:         ri.Enabled,
		SymmetryColumns: ri.SymmetryColumns,
		OrbitsCollapsed: ri.OrbitsCollapsed,
		AmpleHits:       ri.AmpleHits,
		SpillRuns:       ri.SpillRuns,
		SpilledBytes:    ri.SpilledBytes,
		PeakMemBytes:    ri.PeakMemBytes,
		Fallback:        ri.Fallback,
	}
}

// WitnessStep is one transition of a counterexample: an entity move (its
// place and the index of the fired local transition) or a medium fault (the
// channel and queue position struck).
type WitnessStep struct {
	Kind   string `json:"kind"`
	Place  int    `json:"place"`
	TIndex int    `json:"tIndex"`
	Label  string `json:"label"`
	From   int    `json:"from,omitempty"`
	To     int    `json:"to,omitempty"`
	Msg    string `json:"msg,omitempty"`
	Index  int    `json:"index,omitempty"`
}

// Witness is a shortest counterexample for a failed verification. Kind is
// "deadlock", "extra-trace" or "missing-trace"; Steps is the concrete path;
// Trace its observable projection. For a missing-trace witness, Missing is
// the service trace the composition cannot realize and MatchedPrefix the
// number of its labels the path realizes before diverging.
type Witness struct {
	Kind          string        `json:"kind"`
	Faults        string        `json:"faults"`
	ChannelCap    int           `json:"channelCap"`
	Steps         []WitnessStep `json:"steps"`
	Trace         []string      `json:"trace"`
	Missing       []string      `json:"missing,omitempty"`
	MatchedPrefix int           `json:"matchedPrefix,omitempty"`

	inner *compose.Witness // retained for Replay
}

// Summary renders the witness as an indented step listing.
func (w *Witness) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "counterexample (%s, faults=%s, cap=%d, %d steps):\n",
		w.Kind, w.Faults, w.ChannelCap, len(w.Steps))
	for i, st := range w.Steps {
		fmt.Fprintf(&b, "  %2d. [%s] %s\n", i+1, st.Kind, st.Label)
	}
	if len(w.Trace) > 0 {
		fmt.Fprintf(&b, "  observable trace: %s\n", strings.Join(w.Trace, " "))
	}
	if w.Kind == "missing-trace" {
		fmt.Fprintf(&b, "  service trace not realized: %s (composition realizes the first %d label(s))\n",
			strings.Join(w.Missing, " "), w.MatchedPrefix)
	}
	return b.String()
}

// witnessReport mirrors a compose witness into the facade type.
func witnessReport(w *compose.Witness) *Witness {
	if w == nil {
		return nil
	}
	out := &Witness{
		Kind:          w.Kind,
		Faults:        w.Faults.String(),
		ChannelCap:    w.ChannelCap,
		Trace:         append([]string(nil), w.Trace...),
		Missing:       append([]string(nil), w.Missing...),
		MatchedPrefix: w.MatchedPrefix,
		inner:         w,
	}
	for _, st := range w.Steps {
		out.Steps = append(out.Steps, WitnessStep{
			Kind: st.Kind, Place: st.Place, TIndex: st.TIndex, Label: st.Label,
			From: st.From, To: st.To, Msg: st.Msg, Index: st.Index,
		})
	}
	return out
}

// EquivStats describes one equivalence check by the engine in
// internal/equiv: the combined graph size, the τ-SCC condensation, the
// saturated weak relation, and the hashed partition refinement.
type EquivStats struct {
	// States and Transitions measure the combined (service + composed)
	// graph the check ran on.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// TauSCCs is the number of τ-SCCs — the node count of the refinement.
	TauSCCs int `json:"tauSccs"`
	// SaturationEdges is the size of the saturated weak relation.
	SaturationEdges int `json:"saturationEdges"`
	// RefinementRounds is the number of signature rounds to stabilization.
	RefinementRounds int `json:"refinementRounds"`
	// Blocks is the final number of equivalence classes.
	Blocks int `json:"blocks"`
	// SaturateNanos / RefineNanos are wall clock per engine phase.
	SaturateNanos int64 `json:"saturateNanos"`
	RefineNanos   int64 `json:"refineNanos"`
}

// entityProvider resolves the entity-artifact source of a compositional
// verification: the per-call cache first, then the protocol's attached cache
// (UseArtifacts), then nil — uncached per-call builds.
func (p *Protocol) entityProvider(o VerifyOptions) compose.EntityProvider {
	if !o.Compositional {
		return nil
	}
	cache := o.Artifacts
	if cache == nil {
		cache = p.arts
	}
	if cache == nil {
		return nil
	}
	return cache.provider()
}

// cloneEntities deep-copies an entity map. Exploration resolves and numbers
// specification trees in place, so the facade hands the implementation
// packages private clones: concurrent Verify/Simulate/Optimize calls on one
// Protocol — the steady state of a resident daemon — must not race on the
// shared trees.
func cloneEntities(m map[int]*lotos.Spec) map[int]*lotos.Spec {
	out := make(map[int]*lotos.Spec, len(m))
	for p, sp := range m {
		out[p] = lotos.CloneSpec(sp)
	}
	return out
}

// Verify checks the derived protocol against its service: the composed
// system "hide G in ((T_1 ||| ... ||| T_n) |[G]| Medium)" must be weakly
// bisimilar to the service (exactly, for finite state spaces; up to a
// bounded observable depth otherwise).
//
// Verify is safe for concurrent use on one Protocol: it operates on clones
// of the service and entity trees.
func (p *Protocol) Verify(opts *VerifyOptions) (out *VerifyReport, err error) {
	defer guard(&err)
	var o VerifyOptions
	if opts != nil {
		o = *opts
	}
	red, err := compose.ParseReductions(o.Reductions)
	if err != nil {
		return nil, specErr(err)
	}
	rep, err := compose.Verify(lotos.CloneSpec(p.d.Service.Spec), cloneEntities(p.d.Entities), compose.VerifyOptions{
		ChannelCap:     o.ChannelCap,
		ObsDepth:       o.ObsDepth,
		MaxStates:      o.MaxStates,
		Workers:        o.workers(),
		Faults:         o.Faults.compose(),
		TraceDiffLimit: o.TraceDiffLimit,
		Compositional:  o.Compositional,
		EntityProvider: p.entityProvider(o),
		Reductions:     red,
		SpillBudget:    o.SpillBudget,
	})
	if err != nil {
		return nil, err
	}
	return verifyReport(rep), nil
}

// verifyReport mirrors a compose report into the facade type.
func verifyReport(rep *compose.Report) *VerifyReport {
	out := &VerifyReport{
		Ok:             rep.Ok(),
		Complete:       rep.Complete,
		WeakBisimilar:  rep.WeakBisimilar,
		TracesEqual:    rep.TracesEqual,
		ObsDepth:       rep.ObsDepth,
		Deadlocks:      rep.ComposedDeadlocks,
		ServiceStates:  rep.ServiceGraph.NumStates(),
		ComposedStates: rep.ComposedGraph.NumStates(),
		Summary:        rep.Summary(),
		Faults:         rep.Faults.String(),
		Witness:        witnessReport(rep.Witness),
		Compositional:  compositionalReport(rep.Compositional),
		Reduction:      reductionReport(rep.Reduction),
	}
	if rep.Equiv != nil {
		out.Equiv = &EquivStats{
			States:           rep.Equiv.States,
			Transitions:      rep.Equiv.Transitions,
			TauSCCs:          rep.Equiv.TauSCCs,
			SaturationEdges:  rep.Equiv.SaturationEdges,
			RefinementRounds: rep.Equiv.RefinementRounds,
			Blocks:           rep.Equiv.Blocks,
			SaturateNanos:    rep.Equiv.SaturateNanos,
			RefineNanos:      rep.Equiv.RefineNanos,
		}
	}
	return out
}

// FaultCell is one entry of a fault matrix: the verdict of one verification
// under one fault model.
type FaultCell struct {
	// Faults is the canonical fault-model name.
	Faults string `json:"faults"`
	// Report is the full verification report for this cell.
	Report *VerifyReport `json:"report"`
}

// VerifyMatrix verifies the protocol once per fault model — a fault matrix
// row per model, in input order — reusing the given options for everything
// but the fault model. An empty model list verifies the reliable medium
// only. Like Verify, it operates on clones and is safe for concurrent use.
func (p *Protocol) VerifyMatrix(models []FaultModel, opts *VerifyOptions) (cells []FaultCell, err error) {
	defer guard(&err)
	var o VerifyOptions
	if opts != nil {
		o = *opts
	}
	cms := make([]compose.FaultModel, len(models))
	for i, f := range models {
		cms[i] = f.compose()
	}
	red, err := compose.ParseReductions(o.Reductions)
	if err != nil {
		return nil, specErr(err)
	}
	mx, err := compose.VerifyMatrix(lotos.CloneSpec(p.d.Service.Spec), cloneEntities(p.d.Entities), cms, compose.VerifyOptions{
		ChannelCap:     o.ChannelCap,
		ObsDepth:       o.ObsDepth,
		MaxStates:      o.MaxStates,
		Workers:        o.workers(),
		TraceDiffLimit: o.TraceDiffLimit,
		Compositional:  o.Compositional,
		EntityProvider: p.entityProvider(o),
		Reductions:     red,
		SpillBudget:    o.SpillBudget,
	})
	if err != nil {
		return nil, err
	}
	for _, c := range mx {
		cells = append(cells, FaultCell{Faults: c.Faults.String(), Report: verifyReport(c.Report)})
	}
	return cells, nil
}

// ReplayResult reports the re-execution of a counterexample through the
// concrete runtime (entity interpreter + medium).
type ReplayResult struct {
	// Trace is the observable projection of the replayed execution.
	Trace []string `json:"trace"`
	// Terminated and Deadlocked classify where the replay ended.
	Terminated bool `json:"terminated"`
	Deadlocked bool `json:"deadlocked"`
	// Steps is the number of witness steps executed.
	Steps int `json:"steps"`
}

// Replay re-executes a counterexample produced by Verify or VerifyMatrix on
// this protocol step-for-step through the runtime interpreter and medium,
// confirming the abstract counterexample is a real execution. The witness
// must carry its extraction context (only witnesses returned by this
// process's Verify calls do; deserialized ones do not).
func (p *Protocol) Replay(w *Witness) (*ReplayResult, error) {
	return p.ReplayWith(w, "")
}

// ReplayWith is Replay with an engine choice: "ast" (or "") replays through
// the AST interpreter, "fsm" through the compiled tables — the compiled
// machines preserve per-state transition order, so a witness's pinned
// transition indices select the same transitions under either engine.
func (p *Protocol) ReplayWith(w *Witness, engineName string) (out *ReplayResult, err error) {
	defer guard(&err)
	if w == nil || w.inner == nil {
		return nil, errors.New("protoderive: witness carries no replay context (was it deserialized?)")
	}
	engine, err := simEngine(engineName)
	if err != nil {
		return nil, err
	}
	var fleet *fsm.Fleet
	if engine == sim.EngineFSM {
		fleet = p.fleet(0)
	}
	res, err := sim.ReplayWitnessEngine(cloneEntities(p.d.Entities), w.inner, engine, fleet)
	if err != nil {
		return nil, err
	}
	return &ReplayResult{
		Trace:      append([]string(nil), res.Trace...),
		Terminated: res.Terminated,
		Deadlocked: res.Deadlocked,
		Steps:      res.Steps,
	}, nil
}

// CompileOptions tunes Compile. The zero value (or nil) selects defaults.
type CompileOptions struct {
	// MaxStates caps each entity's explored state space (default
	// fsm.DefaultMaxStates = 4096). Entities over the cap are reported as
	// fallbacks, not errors.
	MaxStates int
}

// EntityCompile reports the compilation of one protocol entity.
type EntityCompile struct {
	// Place is the entity's protocol place.
	Place int `json:"place"`
	// Compiled reports a successful compilation; when false, Error holds
	// the reason and the runtime falls back to the AST interpreter for
	// this entity.
	Compiled bool `json:"compiled"`
	// States / Transitions are the exact (execution-table) sizes.
	States      int `json:"states,omitempty"`
	Transitions int `json:"transitions,omitempty"`
	// MinStates / MinTransitions are the weak-bisimulation-minimized sizes
	// (the number of weakly inequivalent entity behaviours).
	MinStates      int `json:"minStates,omitempty"`
	MinTransitions int `json:"minTransitions,omitempty"`
	// Error describes a failed compilation (state cap overflow).
	Error string `json:"error,omitempty"`
}

// CompileReport summarizes compiling every entity of the protocol to
// table-driven machines.
type CompileReport struct {
	// Entities holds one row per place, in place order.
	Entities []EntityCompile `json:"entities"`
	// Compiled / Fallback count entities that did and did not compile.
	Compiled int `json:"compiled"`
	Fallback int `json:"fallback"`
	// MaxStates is the per-entity state cap the compilation ran with.
	MaxStates int `json:"maxStates"`
}

// Compile compiles the derived entities to minimized table-driven state
// machines (internal/fsm) and reports per-entity state/transition counts,
// both exact and weak-bisimulation-minimized. Entities whose state space
// exceeds the cap (unbounded recursion) are reported as fallbacks; simulating
// with the "fsm" engine then runs them interpreted (a mixed fleet). The
// compiled fleet is cached on the Protocol, so a Simulate with the same cap
// reuses it. Safe for concurrent use.
func (p *Protocol) Compile(opts *CompileOptions) (rep *CompileReport, err error) {
	defer guard(&err)
	var o CompileOptions
	if opts != nil {
		o = *opts
	}
	if o.MaxStates <= 0 {
		o.MaxStates = fsm.DefaultMaxStates
	}
	f := p.fleet(o.MaxStates)
	rep = &CompileReport{MaxStates: o.MaxStates}
	places := make([]int, 0, len(p.d.Entities))
	for place := range p.d.Entities {
		places = append(places, place)
	}
	sort.Ints(places)
	for _, place := range places {
		if m := f.Machines[place]; m != nil {
			rep.Entities = append(rep.Entities, EntityCompile{
				Place:          place,
				Compiled:       true,
				States:         m.NumStates(),
				Transitions:    m.NumTransitions(),
				MinStates:      m.MinStates(),
				MinTransitions: m.MinTransitions(),
			})
			rep.Compiled++
			continue
		}
		row := EntityCompile{Place: place}
		if ce := f.Errors[place]; ce != nil {
			row.States = ce.States
			row.Error = ce.Error()
		}
		rep.Entities = append(rep.Entities, row)
		rep.Fallback++
	}
	return rep, nil
}

// simEngine maps a facade engine name to the runtime's engine selector.
func simEngine(name string) (sim.Engine, error) {
	switch name {
	case "", "ast":
		return sim.EngineAST, nil
	case "fsm":
		return sim.EngineFSM, nil
	}
	return "", fmt.Errorf("protoderive: unknown engine %q (want %q or %q)", name, "ast", "fsm")
}

// SimOptions tunes Simulate.
type SimOptions struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// MaxEvents bounds non-terminating runs.
	MaxEvents int
	// Timeout aborts a stuck run (default 5s).
	Timeout time.Duration
	// Script, when non-empty, drives the users along this exact global
	// sequence of service primitives instead of random choices.
	Script []string
	// MaxDelay enables random message delivery delays up to this bound.
	MaxDelay time.Duration
	// LossRate injects message loss (the derived protocols assume a
	// reliable medium; loss demonstrates the Section-6 limitation).
	LossRate float64
	// ReliableLayer interposes a stop-and-wait ARQ transport between the
	// entities and the lossy wire — the Section-6 error-recovery
	// transformation. With it, LossRate describes the wire and the
	// protocol still completes.
	ReliableLayer bool
	// Engine selects the entity execution engine: "ast" (default)
	// interprets the entity syntax trees, "fsm" runs them compiled to
	// table-driven machines, with per-entity AST fallback when compilation
	// exceeds the state cap.
	Engine string
	// CompileMaxStates caps per-entity compilation for the "fsm" engine
	// (default fsm.DefaultMaxStates).
	CompileMaxStates int
}

// SimResult reports one concurrent execution of the derived protocol.
type SimResult struct {
	// Trace is the observed global sequence of service primitives.
	Trace []string
	// Completed, Deadlocked, TimedOut, Stopped classify the run's end.
	Completed, Deadlocked, TimedOut, Stopped bool
	// MessagesSent / MessagesDropped are medium counters.
	MessagesSent, MessagesDropped int
	// TraceValid reports that the observed trace is a weak trace of the
	// service (checked against the service state space).
	TraceValid bool
	// CompiledEntities / InterpretedEntities count how many entities ran
	// on the compiled tables vs the AST interpreter (a mixed fleet has
	// both non-zero).
	CompiledEntities    int
	InterpretedEntities int
}

// Simulate runs the derived entities concurrently — one goroutine per
// protocol entity over a FIFO medium — and checks the observed trace
// against the service specification. Like Verify, it operates on clones and
// is safe for concurrent use on one Protocol.
func (p *Protocol) Simulate(opts *SimOptions) (out *SimResult, err error) {
	defer guard(&err)
	var o SimOptions
	if opts != nil {
		o = *opts
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	engine, err := simEngine(o.Engine)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Seed:      o.Seed,
		MaxEvents: o.MaxEvents,
		Timeout:   o.Timeout,
		Engine:    engine,
	}
	if engine == sim.EngineFSM {
		cfg.Fleet = p.fleet(o.CompileMaxStates)
	}
	cfg.Medium.MaxDelay = o.MaxDelay
	cfg.Medium.LossRate = o.LossRate
	cfg.Reliable = o.ReliableLayer
	if len(o.Script) > 0 {
		cfg.Harness = sim.NewScripted(o.Script)
	}
	res, err := sim.Run(cloneEntities(p.d.Entities), cfg)
	if err != nil {
		return nil, err
	}
	out = &SimResult{
		Trace:           res.TraceStrings(),
		Completed:       res.Completed,
		Deadlocked:      res.Deadlocked,
		TimedOut:        res.TimedOut,
		Stopped:         res.Stopped,
		MessagesSent:    res.Medium.Sent,
		MessagesDropped: res.Medium.Dropped,
	}
	out.CompiledEntities = res.CompiledPlaces()
	out.InterpretedEntities = len(res.Engines) - out.CompiledEntities
	out.TraceValid = sim.CheckTrace(p.d.Service.Spec, res, 0) == nil
	return out, nil
}

// OptimizeReport describes a message-optimization pass.
type OptimizeReport struct {
	// Before / After count send interactions in the entity texts.
	Before, After int
	// Removed lists the eliminated message identifications.
	Removed []int
	// Protocol is the optimized protocol (the receiver is unchanged).
	Protocol *Protocol
}

// Optimize removes non-essential synchronization messages (the elimination
// the paper defers to [Khen 89]), re-verifying the Section-5 relation after
// every removal; only removals that keep the protocol correct survive. The
// given options bound each verification (nil selects defaults). Like
// Verify, it operates on clones and is safe for concurrent use.
func (p *Protocol) Optimize(opts *VerifyOptions) (out *OptimizeReport, err error) {
	defer guard(&err)
	var o VerifyOptions
	if opts != nil {
		o = *opts
	}
	res, err := compose.OptimizeMessages(lotos.CloneSpec(p.d.Service.Spec), cloneEntities(p.d.Entities), compose.VerifyOptions{
		ChannelCap: o.ChannelCap,
		ObsDepth:   o.ObsDepth,
		MaxStates:  o.MaxStates,
		Workers:    o.workers(),
	})
	if err != nil {
		return nil, err
	}
	optimized := &core.Derivation{
		Service:  p.d.Service,
		Places:   append([]int(nil), p.d.Places...),
		Entities: res.Entities,
		Opts:     p.d.Opts,
	}
	return &OptimizeReport{
		Before:   res.Before,
		After:    res.After,
		Removed:  append([]int(nil), res.Removed...),
		Protocol: &Protocol{d: optimized},
	}, nil
}

// Centralized is the paper's Section-3 "trivial solution" baseline: a
// single server entity drives client command loops.
type Centralized struct {
	d *core.CentralizedDerivation
}

// DeriveCentralized builds the centralized baseline (server 0 selects the
// smallest place). Disabling is not supported by the baseline.
func (s *Service) DeriveCentralized(server int) (cen *Centralized, err error) {
	defer guard(&err)
	d, err := core.DeriveCentralized(s.spec, server)
	if err != nil {
		return nil, specErr(err)
	}
	return &Centralized{d: d}, nil
}

// Server returns the controlling place.
func (c *Centralized) Server() int { return c.d.Server }

// EntityText renders one entity of the baseline.
func (c *Centralized) EntityText(place int) string {
	e := c.d.Entities[place]
	if e == nil {
		return ""
	}
	return e.String()
}

// MessageCount returns the number of messages a centralized execution
// exchanges (two per remote primitive plus the final halt broadcast).
func (c *Centralized) MessageCount() int { return c.d.MessageCount() }

// ClusterModel is a built cluster scenario: every class parsed, derived and
// compiled, ready to Run repeatedly and to replay any recorded session. It
// aliases internal/cluster's Model so facade users never import internal
// packages.
type ClusterModel = cluster.Model

// BuildCluster compiles a fleet-scale simulation scenario: for every SLO
// class it parses the service, derives the protocol entities (the paper's
// Section-4 algorithm) and compiles them to table-driven machines. The
// returned model runs thousands-to-millions of concurrent sessions on a
// virtual clock, deterministically from the scenario seed.
func BuildCluster(sc *cluster.Scenario) (m *ClusterModel, err error) {
	defer guard(&err)
	m, err = cluster.Build(sc)
	if err != nil {
		return nil, specErr(err)
	}
	return m, nil
}

// SimulateCluster builds and runs a scenario in one call. For repeated runs
// or session replay, use BuildCluster and the model's Run/ReplaySession.
func SimulateCluster(sc *cluster.Scenario) (res *cluster.Result, err error) {
	defer guard(&err)
	m, err := cluster.Build(sc)
	if err != nil {
		return nil, specErr(err)
	}
	return m.Run()
}

// LoadClusterScenario reads a scenario file (JSON; class spec paths resolve
// against the file's directory).
func LoadClusterScenario(path string) (sc *cluster.Scenario, err error) {
	defer guard(&err)
	sc, err = cluster.LoadScenario(path)
	if err != nil {
		return nil, specErr(err)
	}
	return sc, nil
}

// ConformanceReport is the verdict of checking a live deployment's recorded
// trace logs against the service: the per-entity logs are merged by global
// sequence number and the resulting observable trace replayed against the
// service LTS.
type ConformanceReport struct {
	// Verdict is "accepted", "incomplete", "deadlock" or "violation";
	// Reason explains it.
	Verdict string `json:"verdict"`
	Reason  string `json:"reason"`
	// Trace is the merged global observable trace.
	Trace []string `json:"trace"`
	// TraceAccepted reports the trace is a weak trace of the service.
	TraceAccepted bool `json:"traceAccepted"`
	// Complete reports no observations were missing (all logs ended, no
	// sequence gaps, no restarts, no aborts).
	Complete bool `json:"complete"`
	// Outcome is the session outcome the logs agree on.
	Outcome string `json:"outcome,omitempty"`
	// Gaps/Beyond/Restarts quantify missing observations.
	Gaps     int `json:"gaps,omitempty"`
	Beyond   int `json:"beyond,omitempty"`
	Restarts int `json:"restarts,omitempty"`
}

// CheckTraceLogs parses the per-entity NDJSON trace logs a pgdeploy
// deployment wrote (one file per entity) and checks the merged global trace
// against this service: accept = trace inclusion, with deadlock flagged on
// quiescent non-final states and missing observations reported as an
// incomplete (prefix-checked) session. maxStates bounds the service states
// the check may need (0 = default); a check that needs more returns an
// error, not a report.
func (s *Service) CheckTraceLogs(paths []string, maxStates int) (rep *ConformanceReport, err error) {
	defer guard(&err)
	r, err := conformance.CheckFiles(s.spec, paths, maxStates)
	if err != nil {
		return nil, err
	}
	return &ConformanceReport{
		Verdict:       string(r.Verdict),
		Reason:        r.Reason,
		Trace:         append([]string(nil), r.Trace...),
		TraceAccepted: r.TraceAccepted,
		Complete:      r.Complete,
		Outcome:       r.Outcome,
		Gaps:          r.Gaps,
		Beyond:        r.Beyond,
		Restarts:      r.Restarts,
	}, nil
}

// Version identifies the library.
const Version = "1.0.0"
