package main

import (
	"embed"
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/cluster"
)

// The workloads read frozen copies of the corpus specs, so a later edit to
// specs/ cannot silently change what the benchmark measures. barrier.spec is
// kept exactly as it was when the benchmark was defined, known defect
// included: its service deadlocks, which is what the verify-matrix expected
// answers record.
//
//go:embed specs/*.spec
var specFS embed.FS

// frozenSpec returns the frozen source of a corpus spec.
func frozenSpec(name string) string {
	b, err := specFS.ReadFile("specs/" + name + ".spec")
	if err != nil {
		panic(fmt.Sprintf("benchmark: frozen spec %s: %v", name, err))
	}
	return string(b)
}

// matrixSpecs are the verify-matrix corpus: every frozen spec except
// multiinstance and multiring, whose products overflow the CLI's default
// state cap in every cell.
var matrixSpecs = []string{
	"anbn", "barrier", "example3", "example5", "example6",
	"farm", "nesteddisable", "pipeline", "session", "transport",
}

// matrixFaults are the fault-model columns of the matrix, in the names
// protoderive.ParseFaultModel accepts.
var matrixFaults = []string{"reliable", "loss", "dup", "reorder"}

// matrixCaps are the channel capacities of the matrix.
var matrixCaps = []int{1, 2}

// cell is one verify-matrix input: a spec source under one channel capacity
// and one fault model.
type cell struct {
	Spec   string
	Cap    int
	Faults string
	Src    string
}

// Key names the cell the way the expected-answer table does.
func (c cell) Key() string { return fmt.Sprintf("%s/cap%d/%s", c.Spec, c.Cap, c.Faults) }

// newRNG returns the benchmark's deterministic generator for one stream of
// one seed.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Input streams: each workload draws from its own stream, so adding a draw
// to one cannot shift another's inputs.
const (
	streamDeep uint64 = iota + 1
	streamMatrix
	streamFleet
	streamSample
)

// reserved are lowercase identifiers a renamed primitive must not collide
// with: keywords and the internal action.
var reserved = map[string]bool{"exit": true, "stop": true, "hide": true, "in": true, "i": true}

// renameSpec applies a seeded bijective renaming to the service primitives
// of a spec source: every identifier "name<digits>" (a primitive at a
// service access point) gets a fresh all-letter name, consistently across
// the source; place numbers, process names, keywords and comments are left
// alone. The renaming is an isomorphism of the service, so verdicts and
// state counts must not change with it. It also returns the name map.
func renameSpec(src string, rng *rand.Rand) (string, map[string]string) {
	names := map[string]string{}
	used := map[string]bool{}
	fresh := func() string {
		for {
			n := 2 + rng.IntN(4)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + rng.IntN(26))
			}
			s := string(b)
			if !reserved[s] && !used[s] {
				used[s] = true
				return s
			}
		}
	}
	var out strings.Builder
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			j := strings.IndexByte(src[i:], '\n')
			if j < 0 {
				j = len(src) - i
			}
			out.WriteString(src[i : i+j])
			i += j
		case isLetter(c) || c == '_':
			j := i
			for j < len(src) && (isLetter(src[j]) || isDigit(src[j]) || src[j] == '_') {
				j++
			}
			word := src[i:j]
			cut := len(word)
			for cut > 0 && isDigit(word[cut-1]) {
				cut--
			}
			if c >= 'a' && c <= 'z' && cut > 0 && cut < len(word) {
				name := word[:cut]
				nn, ok := names[name]
				if !ok {
					nn = fresh()
					names[name] = nn
				}
				word = nn + word[cut:]
			}
			out.WriteString(word)
			i = j
		default:
			out.WriteByte(c)
			i++
		}
	}
	return out.String(), names
}

func isLetter(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }

// deepInputs returns n seeded renamings of the multiinstance spec, one per
// verify-deep operation (operation k uses input k mod n).
func deepInputs(seed int64, n int) []string {
	rng := newRNG(seed, streamDeep)
	src := frozenSpec("multiinstance")
	out := make([]string, n)
	for i := range out {
		out[i], _ = renameSpec(src, rng)
	}
	return out
}

// matrixPasses returns n seeded passes over the 80 verify-matrix cells: each
// pass renames every spec afresh and visits the cells in its own order.
func matrixPasses(seed int64, n int) [][]cell {
	rng := newRNG(seed, streamMatrix)
	out := make([][]cell, n)
	for p := range out {
		var pass []cell
		for _, name := range matrixSpecs {
			src, _ := renameSpec(frozenSpec(name), rng)
			for _, c := range matrixCaps {
				for _, f := range matrixFaults {
					pass = append(pass, cell{Spec: name, Cap: c, Faults: f, Src: src})
				}
			}
		}
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		out[p] = pass
	}
	return out
}

// fleetSessions is the number of sessions one simulate-fleet pass admits
// or rejects: large enough that Model.Run takes a few hundred milliseconds,
// small enough for a few dozen passes per run.
const fleetSessions = 20000

// fleetClass is one class of the simulate-fleet mix. Interrupts lists the
// class's disabling primitives (the first event of each "[>" right-hand
// side): a session of a disabling class may deviate from its service
// after one of them — shortcoming (ii) of the paper's Section 3.3, see
// EXPERIMENTS.md E11 — and the trace check accepts exactly that deviation.
type fleetClass struct {
	cluster.ClassSpec
	Interrupts []string
}

// fleetMix is the class mix of scenarios/bench100k.json: its arrival
// processes, rates, shapes, sweep costs, event bounds and SLOs.
var fleetMix = []fleetClass{
	{ClassSpec: cluster.ClassSpec{Name: "barrier", Arrival: "poisson", RatePerSec: 40000, SLO: "10ms"}},
	{ClassSpec: cluster.ClassSpec{Name: "multiinstance", Arrival: "gamma", Shape: 0.6, RatePerSec: 30000, SweepCost: "2us", SLO: "20ms"}},
	{ClassSpec: cluster.ClassSpec{Name: "nesteddisable", Arrival: "weibull", Shape: 0.8, RatePerSec: 20000, SLO: "5ms"}, Interrupts: []string{"d2", "e2", "f2"}},
	{ClassSpec: cluster.ClassSpec{Name: "example6", Arrival: "poisson", RatePerSec: 10000, MaxEvents: 24}, Interrupts: []string{"d3"}},
}

// fleetScenario builds the simulate-fleet scenario for a seed: fleetMix over
// inline, seeded renamings of the frozen specs, 8 replicas, least-loaded
// routing, admission on, sessions kept for replay. It returns, per class,
// the renamed disabling primitives.
func fleetScenario(seed int64) (*cluster.Scenario, [][]string) {
	rng := newRNG(seed, streamFleet)
	sc := &cluster.Scenario{
		Name:          "simulate-fleet",
		Seed:          int64(rng.Uint64() >> 1),
		Sessions:      fleetSessions,
		Replicas:      8,
		Router:        cluster.RouteLeastLoaded,
		QuantumSweeps: 32,
		Admission:     &cluster.AdmissionSpec{RatePerSec: 90000, Burst: 256},
		KeepSessions:  true,
	}
	interrupts := make([][]string, len(fleetMix))
	for i, fc := range fleetMix {
		cs := fc.ClassSpec
		var names map[string]string
		cs.Source, names = renameSpec(frozenSpec(cs.Name), rng)
		sc.Classes = append(sc.Classes, cs)
		for _, ev := range fc.Interrupts {
			cut := strings.IndexFunc(ev, func(r rune) bool { return r >= '0' && r <= '9' })
			interrupts[i] = append(interrupts[i], names[ev[:cut]]+ev[cut:])
		}
	}
	return sc, interrupts
}
