package wire

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"repro/internal/compose"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/sim"
)

// The coordinator: the deployment's scheduler and service-user harness. It
// runs sim's lockstep core — the same sweep loop as an in-process Session —
// over the entity processes: a visit is one step granted over the entity's
// control connection, with a delivery barrier after every step (the entity
// flushes its sends before reporting), so the queue states any entity
// observes are exactly those of the in-process shared medium. With the
// harness hosted here and seeded sim.HarnessSeed(seed), and each entity's
// scheduling RNG seeded sim.RunnerSeed(seed, placeIndex), a seeded
// distributed session is execution-identical to sim.Run with
// Config{Lockstep: true, Seed: seed}: same candidate rows, same random
// draws, same trace, same outcome. Witness replay grants exact steps and
// folds the entities' enabledness reports through sim.AnyEnabled, as the
// in-process replayer does.

// CoordinatorConfig configures a deployment coordinator.
type CoordinatorConfig struct {
	// N is the number of entity processes to expect.
	N int
	// Table is the interning table; SpecDigest identifies the service spec.
	Table      *MsgTable
	SpecDigest uint64
	// Listen is the control listen address ("127.0.0.1:0" for loopback).
	Listen string
	// MaxEvents stops a seeded session after this many service primitives
	// (0 means unlimited), exactly as sim.Config.MaxEvents.
	MaxEvents int
	// Timeout is the wall-clock budget of one session; on expiry the session
	// aborts (OutAborted) rather than hang (default 60s).
	Timeout time.Duration
	// RewritePeers, when non-nil, edits the peer map sent to each entity —
	// the test seam that splices fault-injection proxies into chosen
	// channels (wiretest).
	RewritePeers func(place int, peers []Peer) []Peer
}

// ctrl is one entity's control connection.
type ctrl struct {
	c      *Coordinator
	place  int
	conn   net.Conn
	engine string
	addr   string
}

// Coordinator accepts entity control connections and drives sessions.
type Coordinator struct {
	cfg   CoordinatorConfig
	ln    net.Listener
	ents  []*ctrl // ascending place order
	table *MsgTable
	// The session in progress: its service-user harness and the global
	// trace its steps have sequenced.
	harness sim.Harness
	trace   []string
}

// SessionReport is the outcome of one coordinated session, classified as
// sim classifies a Result so live and in-process runs compare directly.
type SessionReport struct {
	// Trace is the global observable trace (event strings, in global
	// sequence order).
	Trace   []string
	Outcome sim.Outcome
	// Aborted marks an infrastructure failure (lost entity, wall-clock
	// budget) — not a protocol outcome; Reason says what happened.
	Aborted bool
	Reason  string
	// Sweeps counts scheduling sweeps; Engines records each entity's engine.
	Sweeps  int
	Engines map[int]string
}

// Canonical renders the protocol outcome as one comparable string — the
// byte-identity format of the live-vs-lockstep differential gate.
func (r *SessionReport) Canonical() string {
	return string(r.Outcome) + "|" + strings.Join(r.Trace, " ")
}

// CanonicalResult renders a sim.Result in SessionReport.Canonical's format.
func CanonicalResult(res *sim.Result) string {
	return string(res.Outcome()) + "|" + strings.Join(res.TraceStrings(), " ")
}

// NewCoordinator opens the control listener.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("wire: coordinator needs at least one entity")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: coordinator listen %s: %w", cfg.Listen, err)
	}
	return &Coordinator{cfg: cfg, ln: ln, table: cfg.Table}, nil
}

// Addr returns the control address entities must dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// WaitEntities accepts the N entity hellos, distributes the peer map, and
// waits for every entity to report its data mesh established.
func (c *Coordinator) WaitEntities() error {
	deadline := time.Now().Add(c.cfg.Timeout)
	for len(c.ents) < c.cfg.N {
		c.ln.(*net.TCPListener).SetDeadline(deadline)
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("wire: coordinator accept: %w", err)
		}
		conn.SetDeadline(deadline)
		hello, err := ReadFrame(conn, c.table)
		if err != nil {
			conn.Close()
			return fmt.Errorf("wire: coordinator handshake: %w", err)
		}
		if hello.Type != FrameHello || hello.Kind != ConnControl {
			conn.Close()
			return fmt.Errorf("wire: coordinator expected control hello, got %s", hello.Type)
		}
		if hello.Version != ProtocolVersion {
			conn.Close()
			return fmt.Errorf("wire: entity %d speaks protocol version %d, want %d", hello.Place, hello.Version, ProtocolVersion)
		}
		if hello.TableDigest != c.table.Digest() {
			conn.Close()
			return fmt.Errorf("wire: entity %d table digest mismatch: %016x != %016x",
				hello.Place, hello.TableDigest, c.table.Digest())
		}
		for _, e := range c.ents {
			if e.place == hello.Place {
				conn.Close()
				return fmt.Errorf("wire: duplicate entity place %d", hello.Place)
			}
		}
		c.ents = append(c.ents, &ctrl{c: c, place: hello.Place, conn: conn, engine: hello.Engine, addr: hello.Addr})
	}
	sort.Slice(c.ents, func(i, j int) bool { return c.ents[i].place < c.ents[j].place })

	peers := make([]Peer, len(c.ents))
	for i, e := range c.ents {
		peers[i] = Peer{Place: e.place, Addr: e.addr}
	}
	for _, e := range c.ents {
		p := peers
		if c.cfg.RewritePeers != nil {
			p = c.cfg.RewritePeers(e.place, peers)
		}
		if err := WriteFrame(e.conn, &Frame{Type: FramePeers, Peers: p}, c.table); err != nil {
			return fmt.Errorf("wire: peers to entity %d: %w", e.place, err)
		}
	}
	for _, e := range c.ents {
		f, err := ReadFrame(e.conn, c.table)
		if err != nil {
			return fmt.Errorf("wire: awaiting ready from entity %d: %w", e.place, err)
		}
		if f.Type == FrameError {
			return fmt.Errorf("wire: entity %d failed during mesh setup: %s", e.place, f.ErrMsg)
		}
		if f.Type != FrameReady {
			return fmt.Errorf("wire: entity %d expected ready, got %s", e.place, f.Type)
		}
	}
	return nil
}

// Engines reports each connected entity's execution engine.
func (c *Coordinator) Engines() map[int]string {
	m := make(map[int]string, len(c.ents))
	for _, e := range c.ents {
		m[e.place] = e.engine
	}
	return m
}

// halt broadcasts the session end (best effort) so every entity closes its
// trace log with the outcome.
func (c *Coordinator) halt(outcome OutcomeFlags, reason string) {
	for _, e := range c.ents {
		WriteFrame(e.conn, &Frame{Type: FrameHalt, Outcome: outcome, Reason: reason}, c.table)
	}
}

// outcomeFlags maps a protocol outcome to its Halt flag.
var outcomeFlags = map[sim.Outcome]OutcomeFlags{
	sim.OutcomeCompleted:  OutCompleted,
	sim.OutcomeDeadlocked: OutDeadlocked,
	sim.OutcomeTimedOut:   OutTimedOut,
	sim.OutcomeStopped:    OutStopped,
}

// abort closes a failed session: Halt(aborted) to everyone, report flagged.
func (c *Coordinator) abort(rep *SessionReport, err error) (*SessionReport, error) {
	rep.Aborted = true
	rep.Reason = err.Error()
	c.halt(OutAborted, rep.Reason)
	return rep, err
}

// stepEntity grants one step (FrameStep, or the given exact grant) to one
// entity and serves harness requests until its StepResult arrives. Service
// events are sequenced into the session trace immediately — the FrameSeq
// answer is what lets the entity stamp its log record.
func (c *Coordinator) stepEntity(e *ctrl, grant *Frame) (*Frame, error) {
	if err := WriteFrame(e.conn, grant, c.table); err != nil {
		return nil, fmt.Errorf("wire: step grant to entity %d: %w", e.place, err)
	}
	for {
		f, err := ReadFrame(e.conn, c.table)
		if err != nil {
			return nil, fmt.Errorf("wire: awaiting step result from entity %d: %w", e.place, err)
		}
		switch f.Type {
		case FrameChoose:
			// The entity's user wants to interact: consult the shared harness
			// exactly as the in-process runner would (one Choose call, same
			// offer order), and return its verdict.
			evs := make([]lotos.Event, len(f.Offered))
			for i, o := range f.Offered {
				evs[i] = o.Event()
			}
			pick := c.harness.Choose(e.place, evs)
			reply := &Frame{Type: FrameChooseReply, Choice: pick}
			if err := WriteFrame(e.conn, reply, c.table); err != nil {
				return nil, fmt.Errorf("wire: harness reply to entity %d: %w", e.place, err)
			}
		case FrameStepResult:
			if f.HasEvent {
				c.trace = append(c.trace, f.EventName)
				seq := &Frame{Type: FrameSeq, GlobalSeq: len(c.trace) - 1}
				if err := WriteFrame(e.conn, seq, c.table); err != nil {
					return nil, fmt.Errorf("wire: sequencing event for entity %d: %w", e.place, err)
				}
			}
			return f, nil
		case FrameError:
			return nil, fmt.Errorf("wire: entity %d failed: %s", e.place, f.ErrMsg)
		default:
			return nil, fmt.Errorf("wire: entity %d sent unexpected %s during step", e.place, f.Type)
		}
	}
}

// start broadcasts the session start, arms the wall-clock budget and
// installs the session's harness.
func (c *Coordinator) start(seed int64, mode SessionMode, harness sim.Harness) error {
	c.harness, c.trace = harness, nil
	deadline := time.Now().Add(c.cfg.Timeout)
	for _, e := range c.ents {
		e.conn.SetDeadline(deadline)
	}
	for _, e := range c.ents {
		f := &Frame{Type: FrameStart, Seed: seed, Mode: mode}
		if err := WriteFrame(e.conn, f, c.table); err != nil {
			return fmt.Errorf("wire: start to entity %d: %w", e.place, err)
		}
	}
	return nil
}

// Place implements sim.LockstepEntity.
func (e *ctrl) Place() int { return e.place }

// Visit implements sim.LockstepEntity: one step granted over the control
// connection, a service primitive sequenced into the session trace.
func (e *ctrl) Visit() (progressed, done, event bool, err error) {
	f, err := e.c.stepEntity(e, &Frame{Type: FrameStep})
	if err != nil {
		return false, false, false, err
	}
	return f.Progressed, f.Done, f.HasEvent, nil
}

// RunSeeded drives one seeded session to its end: sim's lockstep core over
// the entity processes, exactly as Session.StepN runs it to completion. A
// sweep without progress is classified by the global in-flight count —
// with the delivery barrier nothing is on the wire, so it is the sum of the
// entities' queued messages, and during a no-progress sweep the queues are
// static, so the per-entity reports form a consistent snapshot. The
// report's protocol outcome is byte-identical (Canonical) to sim.Run with
// Config{Lockstep: true, Seed: seed} over the same entities.
func (c *Coordinator) RunSeeded(seed int64) (*SessionReport, error) {
	rep := &SessionReport{Outcome: sim.OutcomeNone, Engines: c.Engines()}
	if err := c.start(seed, ModeSeeded, sim.NewAcceptAll(sim.HarnessSeed(seed))); err != nil {
		return c.abort(rep, err)
	}
	core := sim.NewLockstep(c.ents, c.cfg.MaxEvents, c.totalQueued, nil)
	_, _, err := core.Run(0)
	rep.Trace, rep.Sweeps = c.trace, core.Sweeps()
	if err != nil {
		return c.abort(rep, err)
	}
	rep.Outcome = core.Outcome()
	c.halt(outcomeFlags[rep.Outcome], "")
	return rep, nil
}

// enabledReports polls every entity's enabledness and queue occupancy.
func (c *Coordinator) enabledReports() (map[int]*Frame, error) {
	for _, e := range c.ents {
		if err := WriteFrame(e.conn, &Frame{Type: FrameEnabled}, c.table); err != nil {
			return nil, fmt.Errorf("wire: enabled query to entity %d: %w", e.place, err)
		}
	}
	reports := make(map[int]*Frame, len(c.ents))
	for _, e := range c.ents {
		f, err := ReadFrame(e.conn, c.table)
		if err != nil {
			return nil, fmt.Errorf("wire: awaiting enabled report from entity %d: %w", e.place, err)
		}
		if f.Type == FrameError {
			return nil, fmt.Errorf("wire: entity %d failed: %s", e.place, f.ErrMsg)
		}
		if f.Type != FrameEnabledReport {
			return nil, fmt.Errorf("wire: entity %d expected enabled report, got %s", e.place, f.Type)
		}
		reports[e.place] = f
	}
	return reports, nil
}

// totalQueued sums queued messages across every entity's inbound channels.
func (c *Coordinator) totalQueued() (int, error) {
	reports, err := c.enabledReports()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, f := range reports {
		for _, q := range f.QueueLens {
			total += q.Len
		}
	}
	return total, nil
}

// ReplayReport is the outcome of a live witness replay, mirroring
// sim.ReplayResult.
type ReplayReport struct {
	// Trace is the observable projection of the replayed execution.
	Trace []string
	// Terminated reports the witness path took the global δ.
	Terminated bool
	// Deadlocked reports that after the final step no entity move, no
	// global δ, and no fault of the witness's model is enabled.
	Deadlocked bool
	// Steps counts executed witness steps.
	Steps   int
	Aborted bool
	Reason  string
}

// RunReplay drives a verification counterexample step-for-step through the
// live deployment — the distributed face of sim.ReplayWitness. Entity steps
// become exact grants; loss steps are realized by the fault-injection
// proxy on the wire (configured from the same witness, see wiretest), so
// the coordinator only advances past them. Duplication and reordering
// faults are not supported live: their wire realization would need
// sequence-number rewriting that the conformance contract has no use for.
func (c *Coordinator) RunReplay(w *compose.Witness) (*ReplayReport, error) {
	rep := &ReplayReport{}
	if w == nil {
		return rep, fmt.Errorf("wire: nil witness")
	}
	if w.Faults.Duplication || w.Faults.Reorder {
		return rep, fmt.Errorf("wire: live replay supports loss faults only")
	}
	cap := w.ChannelCap
	if cap <= 0 {
		cap = compose.DefaultChannelCap
	}
	fail := func(err error) (*ReplayReport, error) {
		rep.Aborted, rep.Reason = true, err.Error()
		c.halt(OutAborted, rep.Reason)
		return rep, err
	}
	// The replay harness should never be consulted: every grant is exact.
	if err := c.start(0, ModeReplay, sim.NewScripted(nil)); err != nil {
		return fail(err)
	}
	for i, st := range w.Steps {
		switch st.Kind {
		case compose.StepDelta:
			for _, e := range c.ents {
				grant := &Frame{Type: FrameStepExact, Op: uint8(fsm.OpDelta)}
				if _, err := c.stepEntity(e, grant); err != nil {
					return fail(fmt.Errorf("witness step %d [%s]: %w", i+1, st.Kind, err))
				}
			}
			rep.Trace = append(rep.Trace, "delta")
			rep.Terminated = true
		case compose.StepLoss:
			// Realized on the wire by the proxy when the frame passed; the
			// abstract queue position is accounted for by the plan that
			// configured the proxy (wiretest.LossPlan).
		default:
			op, ok := sim.ExactOp(st.Kind)
			if !ok {
				return fail(fmt.Errorf("witness step %d: unsupported kind %q for live replay", i+1, st.Kind))
			}
			e := c.entity(st.Place)
			if e == nil {
				return fail(fmt.Errorf("witness step %d names unknown entity %d", i+1, st.Place))
			}
			grant := &Frame{Type: FrameStepExact, Op: uint8(op), TIndex: st.TIndex}
			res, err := c.stepEntity(e, grant)
			if err != nil {
				return fail(fmt.Errorf("witness step %d [%s] %s: %w", i+1, st.Kind, st.Label, err))
			}
			if res.HasEvent {
				rep.Trace = append(rep.Trace, res.EventName)
			}
		}
		rep.Steps++
	}
	if !rep.Terminated {
		enabled, err := c.anyEnabled(cap, w.Faults)
		if err != nil {
			return fail(err)
		}
		rep.Deadlocked = !enabled
	}
	// The halt outcome is what the entities close their trace logs with, so
	// it must be the replay's faithful classification: a deadlocked replay
	// logged as completed would read, to the conformance checker, as a
	// termination the service never allowed. A replay that neither
	// terminated nor deadlocked stopped where its witness ends.
	stopped := !rep.Terminated && !rep.Deadlocked
	c.halt(outcomeFlags[sim.Classify(rep.Terminated, rep.Deadlocked, false, stopped)], "replay done")
	return rep, nil
}

// entity finds a control connection by place.
func (c *Coordinator) entity(place int) *ctrl {
	for _, e := range c.ents {
		if e.place == place {
			return e
		}
	}
	return nil
}

// anyEnabled combines the entities' enabledness reports into the global
// verdict, as the in-process replayer does: an entity move (sim.AnyEnabled
// over the reports and the reported queue occupancy) or a loss fault
// applicable to some occupied queue.
func (c *Coordinator) anyEnabled(channelCap int, faults compose.FaultModel) (bool, error) {
	frames, err := c.enabledReports()
	if err != nil {
		return false, err
	}
	queue := map[[2]int]int{}
	reports := make(map[int]sim.Enabled, len(frames))
	for to, f := range frames {
		for _, q := range f.QueueLens {
			queue[[2]int{q.From, to}] = q.Len
		}
		reports[to] = sim.Enabled{Delta: f.Delta, Local: f.Local, RecvReady: f.RecvReady, SendTargets: f.SendTargets}
	}
	queued := func(from, to int) int { return queue[[2]int{from, to}] }
	if sim.AnyEnabled(reports, queued, channelCap) {
		return true, nil
	}
	if faults.Loss {
		for _, n := range queue {
			if n > 0 {
				return true, nil
			}
		}
	}
	return false, nil
}

// Close tears down the control plane.
func (c *Coordinator) Close() {
	c.ln.Close()
	for _, e := range c.ents {
		e.conn.Close()
	}
}
