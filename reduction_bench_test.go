package protoderive

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/compose"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// reductionBenchEntities derives the corpus spec once per benchmark.
func reductionBenchEntities(b *testing.B, name string) map[int]*lotos.Spec {
	b.Helper()
	src, err := os.ReadFile("specs/" + name + ".spec")
	if err != nil {
		b.Fatal(err)
	}
	return deriveBenchEntities(b, string(src))
}

// BenchmarkReductionExplore is the ablation lane: the product exploration of
// the symmetric corpus shapes under each reduction set, from fully unreduced
// through POR, POR+symmetry, and the full out-of-core stack. The per-op
// `states` metric is the exploration's size — the reductions' state-count
// ratios ARE the result; the time ratios follow them.
func BenchmarkReductionExplore(b *testing.B) {
	shapes := []struct {
		spec string
		cap  int
	}{
		{"multiinstance", 1},
		{"multiring", 1},
		{"farm", 1},
	}
	reductions := []struct {
		name string
		red  compose.Reductions
	}{
		{"none", compose.RedNone},
		{"por", 0}, // default set
		{"por+symmetry", compose.RedPOR.With(compose.RedSymmetry)},
		{"por+symmetry+spill", compose.RedAll.With(0)},
	}
	for _, shape := range shapes {
		entities := reductionBenchEntities(b, shape.spec)
		for _, r := range reductions {
			b.Run(shape.spec+"/"+r.name, func(b *testing.B) {
				var states, trans int
				for i := 0; i < b.N; i++ {
					sys, err := compose.New(entities, compose.Config{
						ChannelCap: shape.cap,
						// No depth limit: the corpus shapes are finite, so
						// every cell explores its exact full state space.
						Limits:     lts.Limits{MaxStates: 1000000},
						Reductions: r.red,
						// Small enough that the spill lane actually spills
						// on the larger shapes.
						SpillBudget: 256 << 10,
					})
					if err != nil {
						b.Fatal(err)
					}
					g, err := sys.Explore()
					if err != nil {
						b.Fatal(err)
					}
					if g.Truncated {
						b.Fatalf("%s/%s truncated at 1M states", shape.spec, r.name)
					}
					states, trans = g.NumStates(), g.NumTransitions()
				}
				b.ReportMetric(float64(states), "states")
				b.ReportMetric(float64(trans), "transitions")
			})
		}
	}
}

// bigRingSrc builds a k-instance two-place relay: k syntactically identical
// interleaved columns, each sending one message from site 1 to site 2. The
// concrete product grows exponentially in k (every interleaving of k
// identical columns is a distinct state); the symmetry orbit quotient grows
// with the MULTISETS of column signatures — polynomially (measured ≈ k^6.5
// at capacity 1) — which is what lets instance counts far beyond the
// unreduced horizon explore to completion at all.
func bigRingSrc(k int) string {
	parts := make([]string, k)
	for i := range parts {
		parts[i] = "Ring"
	}
	return "SPEC " + strings.Join(parts, " ||| ") + " WHERE\n  PROC Ring = t1; t2; exit END\nENDSPEC"
}

// BenchmarkReductionBigK is the out-of-core scaling lane: k identical relay
// instances — 5× the two-instance corpus shape's instance count and, at
// k=10, a concrete state space ~10^4× multiinstance's 129,665 states —
// explored TO COMPLETION under symmetry with the spilling visited index
// held at a 1 MiB budget. The reported metrics carry the acceptance
// evidence: `states` (the orbit quotient's size), `peak_mem_bytes` (the
// visited index's bounded residency, ≤ budget + one entry) and
// `spilled_bytes` (what went to disk instead of RAM).
func BenchmarkReductionBigK(b *testing.B) {
	for _, k := range []int{5, 10} {
		entities := deriveBenchEntities(b, bigRingSrc(k))
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var stats *lts.SpillStats
			for i := 0; i < b.N; i++ {
				sys, err := compose.New(entities, compose.Config{
					ChannelCap: 1,
					// Stats-only counting takes no depth limit (it retains no
					// edges); the relay bodies are finite, so the exploration
					// terminates on its own.
					Limits:      lts.Limits{MaxStates: 2000000},
					Reductions:  compose.RedAll.With(0),
					SpillBudget: 1 << 20, // 1 MiB index residency
				})
				if err != nil {
					b.Fatal(err)
				}
				stats, err = sys.ExploreStatsOnly()
				if err != nil {
					b.Fatal(err)
				}
				if stats.Truncated {
					b.Fatalf("k=%d truncated at 2M orbit states", k)
				}
			}
			b.ReportMetric(float64(stats.States), "states")
			b.ReportMetric(float64(stats.Transitions), "transitions")
			b.ReportMetric(float64(stats.PeakMemBytes), "peak_mem_bytes")
			b.ReportMetric(float64(stats.SpilledBytes), "spilled_bytes")
		})
	}
}

// BenchmarkReductionVerify is the end-to-end acceptance lane: the full
// facade verification (service exploration, product exploration, weak
// bisimulation) of the two-instance corpus shape with and without the
// symmetry reduction, on the parallel explorer, plus the symmetry-reduced
// verification on one worker — the configuration of the verify-deep
// benchmark workload.
func BenchmarkReductionVerify(b *testing.B) {
	src, err := os.ReadFile("specs/multiinstance.spec")
	if err != nil {
		b.Fatal(err)
	}
	svc, err := ParseService(string(src))
	if err != nil {
		b.Fatal(err)
	}
	proto, err := svc.Derive()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, red string
		parallel  bool
	}{
		{"por", "por", true},
		{"por+symmetry", "por+symmetry", true},
		{"por+symmetry/serial", "por+symmetry", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := proto.Verify(&VerifyOptions{
					ChannelCap: 1, ObsDepth: 4, MaxStates: 1000000,
					Parallel: c.parallel, Reductions: c.red,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Ok {
					b.Fatalf("multiinstance not conformant under %s:\n%s", c.name, rep.Summary)
				}
			}
		})
	}
}
