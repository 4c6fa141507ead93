// Command benchmark is the repository's benchmark: three seeded workloads
// run in-process as closed loops (one goroutine, one operation in flight),
// every output checked against a hand-written expected answer, and every
// metric printed by name with its unit. See README.md for why each workload
// exists and which per-layer metric should move which end-to-end metric.
//
// Usage (from the repository root, through benchmark/run.sh):
//
//	bash benchmark/run.sh --workload verify-deep --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 re-runs every operation with a span around each call
// into a layer and reports the per-layer metrics, writing the spans to
// --spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run repeats its set-up at least setupReps times and for at least
// setupSpan, so the median (setup_s) samples more than one instant of a
// shared host; set-up takes microseconds to milliseconds.
const (
	setupReps = 15
	setupSpan = 500 * time.Millisecond
)

// runStats collects one run's timings and failures.
type runStats struct {
	setup     []float64 // ns per set-up repetition
	ops       []float64 // ns per timed operation
	passes    []float64 // ns per pass, timed operations only
	walls     []float64 // ns of wall time per pass, untimed checks included
	rss       []float64 // MB peak resident memory per pass
	attempted int
	failed    int
	err       error // a measurement that could not be taken
}

// op records one timed operation.
func (r *runStats) op(d time.Duration) {
	r.ops = append(r.ops, float64(d.Nanoseconds()))
	r.attempted++
}

// pass records one pass over the workload's input set: its timed work, its
// wall time and its peak resident memory.
func (r *runStats) pass(timed, wall time.Duration) {
	r.passes = append(r.passes, float64(timed.Nanoseconds()))
	r.walls = append(r.walls, float64(wall.Nanoseconds()))
	mb, err := peakRSSMB()
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("reading peak RSS: %w", err)
	}
	r.rss = append(r.rss, mb)
}

// fail counts a failed operation; the reason goes to standard error.
func (r *runStats) fail(err error) {
	r.failed++
	fmt.Fprintln(os.Stderr, "benchmark: FAIL:", err)
}

// more reports whether another pass fits the budget: it must be expected to
// end no later than half a pass past the deadline.
func (r *runStats) more(start time.Time, budget time.Duration) bool {
	return time.Since(start)+time.Duration(mean(r.walls)/2) <= budget
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// cpuTime is the process's CPU time so far: user plus system time of all
// its threads, garbage collector included. The kernel leaves hypervisor
// steal out of it, so it stretches less than wall time when a shared host
// takes the CPU away: on the 2-core host the benchmark was defined on, wall
// time per operation doubled in such episodes, CPU time rose by up to 40%.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Peak resident memory is measured per pass: each pass starts from a
// collected heap with the kernel's resident-set high-water mark reset
// (Linux: "5" written to /proc/self/clear_refs), and its peak is read back
// from VmHWM when it ends. peak_rss_mb is the median over passes; the
// process-wide maximum, one draw of the garbage collector's timing, varied
// by a third between runs of the small simulate-fleet heap.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark since the last reset.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// startPass collects the heap and resets the resident-set high-water mark,
// so passes are measured independently of each other.
func (r *runStats) startPass() {
	runtime.GC()
	if err := resetPeakRSS(); err != nil && r.err == nil {
		r.err = fmt.Errorf("resetting peak RSS: %w", err)
	}
}

// endToEnd derives the end-to-end metrics of an untraced run. Operation,
// pass and set-up times are CPU times (cpuTime).
func endToEnd(r *runStats) map[string]metric {
	okFrac := 0.0
	if r.attempted > 0 {
		okFrac = 1 - float64(r.failed)/float64(r.attempted)
	}
	opSeconds := 0.0
	for _, ns := range r.ops {
		opSeconds += ns / 1e9
	}
	opsPerS := 0.0
	if opSeconds > 0 {
		opsPerS = float64(len(r.ops)) / opSeconds
	}
	return map[string]metric{
		"setup_s":       {quantile(r.setup, 0.5) / 1e9, "s"},
		"op_cpu_p50_ms": {quantile(r.ops, 0.5) / 1e6, "ms"},
		"op_cpu_p90_ms": {quantile(r.ops, 0.9) / 1e6, "ms"},
		"ops_per_cpu_s": {opsPerS, "1/s"},
		"pass_cpu_s":    {quantile(r.passes, 0.5) / 1e9, "s"},
		"peak_rss_mb":   {quantile(r.rss, 0.5), "MB"},
		"ok_frac":       {okFrac, "frac"},
	}
}

// timeSetup runs a workload's set-up repeatedly, recording each
// repetition, and returns the last one's product. A collection before each
// repetition lets it reuse heap pages the previous one touched, so the
// figure measures set-up work rather than first-touch page faults.
func timeSetup[T any](r *runStats, f func() (T, error)) (T, error) {
	var out T
	start := time.Now()
	for i := 0; i < setupReps || time.Since(start) < setupSpan; i++ {
		runtime.GC()
		c0 := cpuTime()
		v, err := f()
		r.setup = append(r.setup, float64((cpuTime() - c0).Nanoseconds()))
		if err != nil {
			return out, err
		}
		out = v
	}
	return out, nil
}

// Input pool sizes: verify-deep cycles through deepPool renamings of its
// spec, verify-matrix through matrixPool seeded passes.
const (
	deepPool   = 16
	matrixPool = 8
)

func run(workload string, seed int64, budget time.Duration, traced bool, spansDir string) (*result, error) {
	r := &runStats{}
	var t *tracer
	if traced {
		t = newTracer()
	}
	var untraced, tracedNS float64
	switch workload {
	case "verify-deep":
		inputs, err := timeSetup(r, func() ([]string, error) { return deepInputs(seed, deepPool), nil })
		if err != nil {
			return nil, err
		}
		next := func(k int) (string, verifyCfg, expect) { return inputs[k%len(inputs)], deepCfg, deepExpect }
		if traced {
			untraced, tracedNS = runVerifyTraced(budget, 1, next, t, r)
		} else {
			runVerifyOps(budget, 1, next, r)
		}
	case "verify-matrix":
		passes, err := timeSetup(r, func() ([][]cell, error) { return matrixPasses(seed, matrixPool), nil })
		if err != nil {
			return nil, err
		}
		n := len(passes[0])
		next := func(k int) (string, verifyCfg, expect) {
			c := passes[(k/n)%len(passes)][k%n]
			return c.Src, cellCfg(c), matrixExpect[c.Key()]
		}
		if traced {
			untraced, tracedNS = runVerifyTraced(budget, n, next, t, r)
		} else {
			runVerifyOps(budget, n, next, r)
		}
	case "simulate-fleet":
		f, err := timeSetup(r, func() (*fleet, error) { return setupFleet(seed, t) })
		if err != nil {
			return nil, err
		}
		if traced {
			untraced, tracedNS = runFleetTraced(f, seed, budget, t, r)
		} else {
			runFleet(f, seed, budget, r)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want verify-deep, verify-matrix or simulate-fleet)", workload)
	}
	if r.err != nil {
		return nil, r.err
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if !traced {
		res.Metrics = endToEnd(r)
		return res, nil
	}
	res.Metrics = layerMetrics(t, len(r.ops), untraced, tracedNS)
	if spansDir != "" {
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
		if err := t.dump(path); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "verify-deep, verify-matrix or simulate-fleet")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := flag.String("spans", "", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
