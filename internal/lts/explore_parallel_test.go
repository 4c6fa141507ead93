package lts

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lotos"
)

// fakeSource is a StateSource over string states with a fixed edge table,
// for explorer tests that need precise control over discovery order. A
// state's key is its name.
type fakeSource struct {
	edges map[string][]fakeTrans
	// failOn makes Next fail for the states it holds.
	failOn map[string]bool
	table  *LabelTable
	mu     sync.Mutex // serializes interning
}

// fakeTrans is one transition of a fakeSource.
type fakeTrans struct {
	label Label
	to    string
}

func (f *fakeSource) Labels() *LabelTable {
	if f.table == nil {
		f.table = NewLabelTable()
	}
	return f.table
}

func (f *fakeSource) Next(st State, out *Successors) error {
	s := st.Val.(string)
	if f.failOn[s] {
		return errors.New("injected derivation failure")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range f.edges[s] {
		out.EmitValue(f.table.Intern(t.label), t.to, t.to)
	}
	return nil
}

func obs(to string) fakeTrans {
	return fakeTrans{Label{Kind: LEvent, Ev: lotos.ServiceEvent("a", 1)}, to}
}

func tau(to string) fakeTrans {
	return fakeTrans{Internal(), to}
}

func stateID(t *testing.T, g *Graph, key string) int {
	t.Helper()
	for i, k := range g.Keys {
		if k == key {
			return i
		}
	}
	t.Fatalf("state %q not in graph (keys %v)", key, g.Keys)
	return -1
}

// TestReExpansionRelaxesDepth pins the fix for the re-expansion branch of
// the explorer refreshing only the observable depth: when a shorter
// transition path to an already-expanded state is found later (through an
// observable-depth improvement that re-queues it), the plain Depth of its
// successors must be relaxed too, or MaxDepth truncation decisions read
// stale distances.
//
// With MaxObsDepth=1 the internal chain root -> X1 -> X2 -> X3 reaches A1
// and A2 at observable depth 0, after they were first discovered at
// observable depth 1 via the "a" edges. The re-expansions triggered by
// those improvements pass through C and D, whose shortest transition
// distances (2 and 3) were discovered second.
func TestReExpansionRelaxesDepth(t *testing.T) {
	src := &fakeSource{edges: map[string][]fakeTrans{
		"root": {obs("A2"), tau("X1")},
		"X1":   {obs("A1"), tau("X2")},
		"A1":   {tau("C")},
		"X2":   {tau("A1"), tau("X3")},
		"X3":   {tau("A2")},
		"A2":   {tau("C")},
		"C":    {tau("D")},
		"D":    {},
	}}
	check := func(t *testing.T, g *Graph) {
		t.Helper()
		if g.Truncated {
			t.Errorf("graph truncated, frontier %v", g.FrontierStates())
		}
		if n := g.NumStates(); n != 8 {
			t.Fatalf("explored %d states, want 8", n)
		}
		want := map[string]int{
			"root": 0, "X1": 1, "A2": 1, "A1": 2, "X2": 2, "C": 2, "X3": 3, "D": 3,
		}
		for key, d := range want {
			if got := g.Depth[stateID(t, g, key)]; got != d {
				t.Errorf("Depth[%s] = %d, want %d", key, got, d)
			}
		}
		for key, od := range map[string]int{"root": 0, "X1": 0, "A1": 0, "A2": 0, "C": 0, "D": 0} {
			if got := g.ObsDepth[stateID(t, g, key)]; got != od {
				t.Errorf("ObsDepth[%s] = %d, want %d", key, got, od)
			}
		}
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			check(t, e.run(t, src, "root", State{Val: "root"}, Limits{MaxObsDepth: 1}))
		})
	}
}

// TestMaxStatesMidExpansionFrontier pins the truncation bookkeeping when
// the state cap lands in the middle of expanding a state: the partially
// derived state keeps its already-derived edges, is marked Frontier (its
// remaining successors are unknown), is NOT reported as a deadlock, and
// the graph is Truncated.
func TestMaxStatesMidExpansionFrontier(t *testing.T) {
	src := &fakeSource{edges: map[string][]fakeTrans{
		"root": {obs("B")},
		"B":    {obs("C1"), obs("C2")},
		"C1":   {obs("B")},
		"C2":   {},
	}}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			// Cap 2: B is reached but cannot expand at all.
			g := e.run(t, src, "root", State{Val: "root"}, Limits{MaxStates: 2})
			if !g.Truncated {
				t.Error("cap=2: graph not marked truncated")
			}
			b := stateID(t, g, "B")
			if len(g.Out(b)) != 0 {
				t.Errorf("cap=2: B has %d edges, want 0", len(g.Out(b)))
			}
			if !g.Frontier(b) {
				t.Error("cap=2: B not in frontier")
			}
			if dl := g.Deadlocks(); len(dl) != 0 {
				t.Errorf("cap=2: frontier state reported as deadlock: %v", dl)
			}

			// Cap 3: B expands its first edge (C1 joins), then hits the cap
			// deriving C2 — a partially derived edge list.
			g = e.run(t, src, "root", State{Val: "root"}, Limits{MaxStates: 3})
			if !g.Truncated {
				t.Error("cap=3: graph not marked truncated")
			}
			b = stateID(t, g, "B")
			if len(g.Out(b)) != 1 {
				t.Errorf("cap=3: B has %d edges, want 1 (partial expansion)", len(g.Out(b)))
			}
			if !g.Frontier(b) {
				t.Error("cap=3: partially expanded B not in frontier")
			}
			if dl := g.Deadlocks(); len(dl) != 0 {
				t.Errorf("cap=3: unexpected deadlocks: %v", dl)
			}

			// Cap 4: closure; C2 is a genuine deadlock, B is not frontier.
			g = e.run(t, src, "root", State{Val: "root"}, Limits{MaxStates: 4})
			if g.Truncated {
				t.Error("cap=4: graph should be complete")
			}
			if dl := g.Deadlocks(); len(dl) != 1 || g.Keys[dl[0]] != "C2" {
				t.Errorf("cap=4: deadlocks = %v, want exactly C2", dl)
			}
		})
	}
}

// graphSig summarizes a graph into a canonical, numbering-independent form:
// sorted keys plus key->sorted-edge-set adjacency.
func graphSig(g *Graph) (keys []string, adj map[string][]string, depth map[string]int, obsDepth map[string]int) {
	keys = append([]string{}, g.Keys...)
	sort.Strings(keys)
	adj = map[string][]string{}
	depth = map[string]int{}
	obsDepth = map[string]int{}
	for s := range g.Keys {
		var out []string
		for _, e := range g.Out(s) {
			out = append(out, fmt.Sprintf("%v->%s", g.Label(e.Label), g.Keys[e.To]))
		}
		sort.Strings(out)
		adj[g.Keys[s]] = out
		depth[g.Keys[s]] = g.Depth[s]
		obsDepth[g.Keys[s]] = g.ObsDepth[s]
	}
	return keys, adj, depth, obsDepth
}

// TestParallelMatchesSerialOnSpecs cross-checks every engine against the
// reference explorer over SOS-derived graphs: same key set, same adjacency,
// same depth accounting.
func TestParallelMatchesSerialOnSpecs(t *testing.T) {
	specs := []string{
		"SPEC a1; b2; exit ENDSPEC",
		"SPEC a1; exit ||| b2; exit ||| c3; exit ENDSPEC",
		"SPEC A WHERE PROC A = a1; A [] b1; exit END ENDSPEC",
		"SPEC (a1; exit >> b2; exit) [> c3; exit ENDSPEC",
	}
	for _, srcText := range specs {
		sp := lotos.MustParse(srcText)
		lim := Limits{MaxObsDepth: 6, MaxStates: 5000}
		var ref *Graph
		for _, e := range engines {
			// A fresh environment per engine proves no run depends on
			// another's memoized instantiations.
			env, err := EnvFor(sp)
			if err != nil {
				t.Fatal(err)
			}
			g := e.run(t, &exprSource{env: env, table: NewLabelTable()}, lotos.Canon(sp.Root.Expr), State{Val: sp.Root.Expr}, lim)
			if ref == nil {
				ref = g
				continue
			}
			rk, ra, rd, ro := graphSig(ref)
			gk, ga, gd, gobs := graphSig(g)
			if !reflect.DeepEqual(rk, gk) {
				t.Errorf("%s: %s key set differs from ref:\nref %v\n%s %v", srcText, e.name, rk, e.name, gk)
				continue
			}
			if !reflect.DeepEqual(ra, ga) {
				t.Errorf("%s: %s adjacency differs from ref", srcText, e.name)
			}
			if !reflect.DeepEqual(rd, gd) {
				t.Errorf("%s: %s depths differ from ref:\nref %v\n%s %v", srcText, e.name, rd, e.name, gd)
			}
			if !reflect.DeepEqual(ro, gobs) {
				t.Errorf("%s: %s obs depths differ from ref", srcText, e.name)
			}
			if ref.Truncated != g.Truncated {
				t.Errorf("%s: %s truncated %v, ref %v", srcText, e.name, g.Truncated, ref.Truncated)
			}
		}
	}
}

// TestParallelDeterministic runs the explorer on eight workers twice over
// the same source and requires bit-identical graphs — state numbering
// included — despite scheduling nondeterminism in the derive phase.
func TestParallelDeterministic(t *testing.T) {
	sp := lotos.MustParse("SPEC A WHERE PROC A = a1; A ||| b2; exit END ENDSPEC")
	lim := Limits{MaxObsDepth: 5, MaxStates: 5000}
	run := func() *Graph {
		env, err := EnvFor(sp)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := ExploreSource(&exprSource{env: env, table: NewLabelTable()}, lotos.Canon(sp.Root.Expr), State{Val: sp.Root.Expr}, lim, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		t.Fatal("state numbering differs between identical parallel runs")
	}
	for s := range a.Keys {
		if !slices.Equal(a.Out(s), b.Out(s)) {
			t.Errorf("edges of state %d differ between identical parallel runs", s)
		}
	}
	if !reflect.DeepEqual(a.Depth, b.Depth) || !reflect.DeepEqual(a.ObsDepth, b.ObsDepth) {
		t.Error("depth accounting differs between identical parallel runs")
	}
}

// TestParallelPropagatesErrors checks that a derivation error aborts the
// exploration and surfaces to the caller naming the first failing state in
// frontier order, whatever the worker count and index.
func TestParallelPropagatesErrors(t *testing.T) {
	src := &fakeSource{
		edges: map[string][]fakeTrans{
			"root": {obs("s0"), obs("s1"), obs("s2"), obs("s3")},
			"s0":   {}, "s1": {}, "s2": {}, "s3": {},
		},
		failOn: map[string]bool{"s1": true, "s3": true},
	}
	for _, workers := range []int{1, 4} {
		for _, spill := range []*SpillConfig{nil, {Dir: t.TempDir()}} {
			_, _, err := ExploreSource(src, "root", State{Val: "root"}, Limits{}, workers, spill)
			// s1 is state 2: the root is 0 and s0 is 1.
			if err == nil || !strings.Contains(err.Error(), "exploring state 2:") {
				t.Errorf("workers=%d spill=%v: got %v, want the failure of state 2 (s1)", workers, spill != nil, err)
			}
		}
	}
}
