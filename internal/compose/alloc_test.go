package compose

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/lotos"
)

// deriveAllocSlack is the allocation allowance of one derive call beyond its
// successors: the exactly sized transition slice it returns, plus one to
// spare.
const deriveAllocSlack = 2

// busyMultiinstanceState derives a few BFS levels of multiinstance under the
// given reductions and returns the system with the reachable state that has
// the most successors among those with a message in transit.
func busyMultiinstanceState(t *testing.T, red Reductions) (*System, gstate) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", "multiinstance.spec"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Derive(lotos.MustParse(string(src)), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(d.Entities, Config{Reductions: red})
	if err != nil {
		t.Fatal(err)
	}
	if red.Has(RedSymmetry) && sys.sym == nil {
		t.Fatal("no symmetry detected on multiinstance")
	}
	n := len(sys.Places)
	var best gstate
	bestSucc := 0
	seen := map[string]bool{}
	level := []gstate{sys.rootState()}
	for depth := 0; depth < 8; depth++ {
		var next []gstate
		for _, g := range level {
			ts, _, err := sys.derive(g, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(g) > n && len(ts) > bestSucc {
				best, bestSucc = g, len(ts)
			}
			for _, tr := range ts {
				if !seen[tr.Key] {
					seen[tr.Key] = true
					next = append(next, tr.To.(gstate))
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
// keys): keying a state allocates only the returned key string, and
// deriving a state allocates its packed successor state, the interface box
// carrying it and its key per emitted successor, plus deriveAllocSlack.
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
	if allocs := testing.AllocsPerRun(200, func() { _ = sys.key(g, sc) }); allocs > 1 {
		t.Errorf("System.key allocates %.1f times, want at most 1", allocs)
	}
	ts, _, err := sys.derive(g, false)
	if err != nil {
		t.Fatal(err)
	}
	limit := float64(3*len(ts) + deriveAllocSlack)
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := sys.derive(g, false); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("derive: %.1f allocations for %d successors", allocs, len(ts))
	if allocs > limit {
		t.Errorf("derive allocates %.1f times for %d successors, want at most %.0f", allocs, len(ts), limit)
	}
}
