package compose

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// deriveAllocSlack is the allocation allowance of one derive call, whatever
// its number of successors.
const deriveAllocSlack = 1

// multiinstanceSystem derives multiinstance and prepares its product under
// the given configuration.
func multiinstanceSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", "multiinstance.spec"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Derive(lotos.MustParse(string(src)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(d.Entities, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Reductions.Has(RedSymmetry) && sys.sym == nil {
		t.Fatal("no symmetry detected on multiinstance")
	}
	return sys
}

// busyMultiinstanceState derives a few BFS levels of multiinstance under the
// given reductions and returns the system with the reachable state that has
// the most successors among those with a message in transit.
func busyMultiinstanceState(t *testing.T, red Reductions) (*System, gstate) {
	t.Helper()
	sys := multiinstanceSystem(t, Config{Reductions: red})
	n := len(sys.Places)
	var (
		best     gstate
		bestSucc int
		buf      lts.Successors
	)
	seen := map[string]bool{}
	level := []gstate{sys.rootState()}
	for depth := 0; depth < 8; depth++ {
		var next []gstate
		for _, g := range level {
			buf.Reset()
			if _, err := sys.derive(g, &buf, false); err != nil {
				t.Fatal(err)
			}
			if len(g) > n && buf.Len() > bestSucc {
				best, bestSucc = g, buf.Len()
			}
			for i := 0; i < buf.Len(); i++ {
				if key := string(buf.Key(i)); !seen[key] {
					seen[key] = true
					next = append(next, slices.Clone(buf.State(i).Words))
				}
			}
		}
		level = next
	}
	if best == nil {
		t.Fatal("no reachable state with a message in transit")
	}
	return sys, best
}

// TestProductStepAllocations guards the allocation budget of product
// stepping under por+symmetry (canonical keys) and plain POR (identity
// keys). Keying a state allocates nothing, and deriving a state into a
// warm successor buffer allocates nothing per successor: at most
// deriveAllocSlack per call, whatever its number of successors.
func TestProductStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops pooled scratch")
	}
	for _, red := range []Reductions{RedPOR.With(RedSymmetry), RedPOR} {
		t.Run(red.String(), func(t *testing.T) { checkStepAllocations(t, red) })
	}
}

func checkStepAllocations(t *testing.T, red Reductions) {
	sys, g := busyMultiinstanceState(t, red)
	sc := new(scratch)
	sys.mu.RLock()
	allocs := testing.AllocsPerRun(200, func() { _ = sys.keyLocked(g, sc) })
	sys.mu.RUnlock()
	if allocs > 0 {
		t.Errorf("System.keyLocked allocates %.1f times, want none", allocs)
	}
	var buf lts.Successors
	if _, err := sys.derive(g, &buf, false); err != nil {
		t.Fatal(err)
	}
	succ := buf.Len()
	allocs = testing.AllocsPerRun(200, func() {
		buf.Reset()
		if _, err := sys.derive(g, &buf, false); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("derive: %.1f allocations for %d successors", allocs, succ)
	if allocs > deriveAllocSlack {
		t.Errorf("derive allocates %.1f times for %d successors, want at most %d", allocs, succ, deriveAllocSlack)
	}
}

// TestExploreAllocatesPerNewState guards the explorer's side of the
// contract: a successor whose key is already visited costs no allocation,
// and a new one costs its key string and its payload copy. Exploring
// multiinstance to a small observable depth therefore allocates at most
// two objects per state, plus the amortized growth of the graph's arrays,
// the visited index and the per-level buffers, which is logarithmic in the
// state count per array and bounded per level.
func TestExploreAllocatesPerNewState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops pooled scratch")
	}
	for _, red := range []Reductions{RedPOR.With(RedSymmetry), RedPOR} {
		t.Run(red.String(), func(t *testing.T) {
			sys := multiinstanceSystem(t, Config{
				Limits:     lts.Limits{MaxObsDepth: 3, MaxStates: 1000000},
				Reductions: red,
			})
			g, err := sys.Explore() // derives every local state once
			if err != nil {
				t.Fatal(err)
			}
			states, transitions := g.NumStates(), g.NumTransitions()
			levels := 0
			for _, d := range g.Depth {
				levels = max(levels, d+1)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := sys.Explore(); err != nil {
					t.Fatal(err)
				}
			})
			limit := float64(2*states + 8*levels + 256)
			t.Logf("explore: %.0f allocations for %d states, %d transitions, %d levels (limit %.0f)",
				allocs, states, transitions, levels, limit)
			if allocs > limit {
				t.Errorf("explore allocates %.0f times for %d states (%d transitions), want at most %.0f",
					allocs, states, transitions, limit)
			}
		})
	}
}

// TestExploreBytesPerState guards the exploration's memory traffic at the
// verify-deep benchmark's bounds: multiinstance, channel capacity 1,
// observable depth 4, por+symmetry, one worker. The exploration must
// allocate under 800 bytes per explored state, everything included: the
// graph, the visited index, the payloads and the derivation buffers.
func TestExploreBytesPerState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	if testing.Short() {
		t.Skip("explores a 50k-state product")
	}
	sys := multiinstanceSystem(t, Config{
		ChannelCap: 1,
		Limits:     lts.Limits{MaxObsDepth: 4, MaxStates: 1000000},
		Reductions: RedPOR.With(RedSymmetry),
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := sys.Explore()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perState := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumStates())
	t.Logf("explore: %.0f bytes per state over %d states", perState, g.NumStates())
	if perState >= 800 {
		t.Errorf("explore allocates %.0f bytes per state, want under 800", perState)
	}
}
