package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"
)

// span is one traced interval: a call into a layer's public function, or
// the root span of one benchmark operation. Spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory (written out by dump at exit) together
// with the counts recorded at the same layer boundaries. Spans nest: a span
// begun while another is open is its child. One goroutine drives it.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	op     int
	counts map[string]float64
	alloc  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		op:     -1,
		counts: map[string]float64{},
		alloc:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Alloc: t.allocated()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.spans[i].Start = time.Since(t.t0).Nanoseconds()
	return i
}

func (t *tracer) end(i int) {
	s := &t.spans[i]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Alloc = t.allocated() - s.Alloc
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span; on a nil tracer it just runs f.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	i := t.begin(name)
	f()
	t.end(i)
}

// opSpan names the root span of one benchmark operation.
const opSpan = "op"

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp() int {
	t.op++
	return t.begin(opSpan)
}

// add records a count; a nil tracer ignores it.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// totals sums span durations and allocations by span name.
func (t *tracer) totals() (ns map[string]float64, alloc map[string]float64) {
	ns, alloc = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		ns[s.Name] += float64(s.dur())
		alloc[s.Name] += float64(s.Alloc)
	}
	return ns, alloc
}

// uncoveredFrac is the share of the operations' wall time (their root
// spans) that no layer span covers. The layer spans directly under one root
// are sequential, so their durations add.
func (t *tracer) uncoveredFrac() float64 {
	var root, covered float64
	for _, s := range t.spans {
		switch {
		case s.Parent < 0 && s.Name == opSpan:
			root += float64(s.dur())
		case s.Parent >= 0 && t.spans[s.Parent].Parent < 0 && t.spans[s.Parent].Name == opSpan:
			covered += float64(s.dur())
		}
	}
	if root == 0 {
		return 0
	}
	return (root - covered) / root
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// perLayer lists every per-layer metric with its unit, in report order.
// Every traced run reports all of them, zero where a layer does not run.
var perLayer = []struct{ name, unit string }{
	{"lotos.parse_ns", "ns"},
	{"attr.validate_ns", "ns"},
	{"core.derive_ns", "ns"},
	{"core.messages", "count"},
	{"lotos.clone_ns", "ns"},
	{"lts.service_explore_ns", "ns"},
	{"lts.service_states", "count"},
	{"compose.new_ns", "ns"},
	{"compose.explore_ns", "ns"},
	{"compose.states", "count"},
	{"compose.transitions", "count"},
	{"compose.states_per_s", "1/s"},
	{"compose.alloc_bytes_per_state", "bytes"},
	{"compose.ample_hits", "count"},
	{"compose.orbits_collapsed", "count"},
	{"compose.truncated_frac", "frac"},
	{"equiv.trace_ns", "ns"},
	{"equiv.trace_alloc_bytes", "bytes"},
	{"lts.deadlocks_ns", "ns"},
	{"equiv.bisim_ns", "ns"},
	{"equiv.bisim_frac", "frac"},
	{"equiv.tau_sccs", "count"},
	{"equiv.saturation_edges", "count"},
	{"equiv.refine_rounds", "count"},
	{"equiv.witness_ns", "ns"},
	{"equiv.witnesses", "count"},
	{"cluster.build_ns", "ns"},
	{"cluster.run_ns", "ns"},
	{"cluster.events_per_s", "1/s"},
	{"cluster.alloc_bytes_per_session", "bytes"},
	{"cluster.admitted_frac", "frac"},
	{"cluster.completed_frac", "frac"},
	{"sim.replay_ns", "ns"},
	{"sim.deviation_frac", "frac"},
	{"lts.check_explore_ns", "ns"},
	{"lts.accepts_ns", "ns"},
	{"trace.overhead_frac", "frac"},
	{"trace.uncovered_frac", "frac"},
}

// layerMetrics derives the per-layer metrics of a traced run. Times, bytes
// and counts are means per operation (ops = verifications, matrix cells or
// trace checks), except the cluster.* figures, which are per cluster.Build
// or per Model.Run. untracedNS and tracedNS are the summed wall times of
// the same operations run untraced (through the facade) and traced.
func layerMetrics(t *tracer, ops int, untracedNS, tracedNS float64) map[string]metric {
	ns, alloc := t.totals()
	c := t.counts
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	per := func(v float64) float64 { return div(v, float64(ops)) }
	v := map[string]float64{
		"lotos.parse_ns":                  per(ns["lotos.parse"]),
		"attr.validate_ns":                per(ns["attr.validate"]),
		"core.derive_ns":                  per(ns["core.derive"]),
		"core.messages":                   per(c["core.messages"]),
		"lotos.clone_ns":                  per(ns["lotos.clone"]),
		"lts.service_explore_ns":          per(ns["lts.service_explore"]),
		"lts.service_states":              per(c["lts.service_states"]),
		"compose.new_ns":                  per(ns["compose.new"]),
		"compose.explore_ns":              per(ns["compose.explore"]),
		"compose.states":                  per(c["compose.states"]),
		"compose.transitions":             per(c["compose.transitions"]),
		"compose.states_per_s":            div(c["compose.states"], ns["compose.explore"]/1e9),
		"compose.alloc_bytes_per_state":   div(alloc["compose.explore"], c["compose.states"]),
		"compose.ample_hits":              per(c["compose.ample_hits"]),
		"compose.orbits_collapsed":        per(c["compose.orbits_collapsed"]),
		"compose.truncated_frac":          div(c["compose.truncated"], c["compose.explorations"]),
		"equiv.trace_ns":                  per(ns["equiv.trace"]),
		"equiv.trace_alloc_bytes":         per(alloc["equiv.trace"]),
		"lts.deadlocks_ns":                per(ns["lts.deadlocks"]),
		"equiv.bisim_ns":                  per(ns["equiv.bisim"]),
		"equiv.bisim_frac":                per(c["equiv.bisim_checks"]),
		"equiv.tau_sccs":                  per(c["equiv.tau_sccs"]),
		"equiv.saturation_edges":          per(c["equiv.saturation_edges"]),
		"equiv.refine_rounds":             per(c["equiv.refine_rounds"]),
		"equiv.witness_ns":                per(ns["equiv.witness"]),
		"equiv.witnesses":                 per(c["equiv.witnesses"]),
		"cluster.build_ns":                div(ns["cluster.build"], c["cluster.builds"]),
		"cluster.run_ns":                  div(ns["cluster.run"], c["cluster.runs"]),
		"cluster.events_per_s":            div(c["cluster.events"], ns["cluster.run"]/1e9),
		"cluster.alloc_bytes_per_session": div(alloc["cluster.run"], c["cluster.arrivals"]),
		"cluster.admitted_frac":           div(c["cluster.admitted"], c["cluster.arrivals"]),
		"cluster.completed_frac":          div(c["cluster.completed"], c["cluster.admitted"]),
		"sim.replay_ns":                   per(ns["sim.replay"]),
		"sim.deviation_frac":              per(c["sim.deviations"]),
		"lts.check_explore_ns":            per(ns["lts.check_explore"]),
		"lts.accepts_ns":                  per(ns["lts.accepts"]),
		"trace.overhead_frac":             div(tracedNS-untracedNS, untracedNS),
		"trace.uncovered_frac":            t.uncoveredFrac(),
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}
