package lts_test

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// The monitor's differential gate: on every corpus spec's derived service,
// the monitor must give the verdict of the bounded two-step check it
// replaced — ExploreSpec to observable depth len+2, uncapped, then
// AcceptsTrace for the trace and for its δ extension — on every weak trace
// up to depth 6, each such trace's δ extension, and every one-label
// mutation of each trace (a label of the service alphabet substituted,
// inserted or deleted). The inputs run three ways — forward on one shared
// monitor, reversed on another, and on a fresh monitor each — so memoized
// nodes can never change a verdict.

// diffDepth is the length of the longest weak trace enumerated.
const diffDepth = 6

// uncapped is the reference exploration's state cap, far above what any
// corpus service reaches at the depths used; a reference graph that hits it
// fails the test instead of producing a spurious rejection.
const uncapped = 1 << 22

// corpusServices parses and derives every corpus spec, returning each
// derived service by file name.
func corpusServices(t testing.TB) map[string]*lotos.Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus specs: %v", err)
	}
	out := map[string]*lotos.Spec{}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := lotos.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		d, err := core.Derive(sp, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[strings.TrimSuffix(filepath.Base(path), ".spec")] = d.Service.Spec
	}
	return out
}

// boundedRef is the reference check, its explored graphs memoized per
// observable depth.
type boundedRef struct {
	t      testing.TB
	svc    *lotos.Spec
	graphs map[int]*lts.Graph
}

func (r *boundedRef) graph(depth int) *lts.Graph {
	if g := r.graphs[depth]; g != nil {
		return g
	}
	g, err := lts.ExploreSpec(lotos.CloneSpec(r.svc), lts.Limits{MaxObsDepth: depth, MaxStates: uncapped})
	if err != nil {
		r.t.Fatal(err)
	}
	if g.NumStates() >= uncapped {
		r.t.Fatalf("reference exploration to depth %d hit its cap", depth)
	}
	r.graphs[depth] = g
	return g
}

func (r *boundedRef) verdict(trace []string) lts.TraceVerdict {
	g := r.graph(len(trace) + 2)
	tr := lts.JoinTrace(trace)
	return lts.TraceVerdict{
		Accepted:   lts.AcceptsTrace(g, tr),
		Terminates: lts.AcceptsTrace(g, lts.AppendTrace(tr, "delta")),
	}
}

// alphabet lists the service's observable labels: every service primitive
// it mentions, and δ.
func alphabet(svc *lotos.Spec) []string {
	set := map[string]bool{"delta": true}
	lotos.WalkSpec(svc, func(e lotos.Expr) {
		if p, ok := e.(*lotos.Prefix); ok && p.Ev.Kind != lotos.EvInternal {
			set[p.Ev.String()] = true
		}
	})
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// monitorInputs returns the differential's inputs for one service, sorted
// and duplicate-free.
func monitorInputs(svc *lotos.Spec, ref *boundedRef) [][]string {
	sigma := alphabet(svc)
	set := map[string][]string{}
	add := func(tr []string) { set[lts.JoinTrace(tr)] = tr }
	for _, rendered := range lts.WeakTraces(ref.graph(diffDepth+2), diffDepth) {
		tr := lts.ParseTrace(rendered)
		add(tr)
		add(append(slices.Clone(tr), "delta"))
		for i := 0; i <= len(tr); i++ {
			if i < len(tr) {
				add(slices.Delete(slices.Clone(tr), i, i+1))
			}
			for _, l := range sigma {
				if i < len(tr) {
					sub := slices.Clone(tr)
					sub[i] = l
					add(sub)
				}
				add(slices.Insert(slices.Clone(tr), i, l))
			}
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]string, len(keys))
	for i, k := range keys {
		out[i] = set[k]
	}
	return out
}

func TestMonitorCorpusDifferential(t *testing.T) {
	for name, svc := range corpusServices(t) {
		t.Run(name, func(t *testing.T) {
			ref := &boundedRef{t: t, svc: svc, graphs: map[int]*lts.Graph{}}
			inputs := monitorInputs(svc, ref)
			want := make([]lts.TraceVerdict, len(inputs))
			accepted := 0
			for i, in := range inputs {
				if want[i] = ref.verdict(in); want[i].Accepted {
					accepted++
				}
			}
			if accepted == 0 || accepted == len(inputs) {
				t.Fatalf("%d of %d inputs accepted: the mutations must give both verdicts", accepted, len(inputs))
			}
			check := func(how string, m *lts.Monitor, i int) {
				if m == nil {
					var err error
					if m, err = lts.NewMonitor(svc); err != nil {
						t.Fatal(err)
					}
				}
				got, err := m.Check(inputs[i], 0)
				if err != nil {
					t.Fatalf("%s: %q: %v", how, inputs[i], err)
				}
				if got != want[i] {
					t.Fatalf("%s: %q: monitor %+v, bounded explore %+v", how, inputs[i], got, want[i])
				}
			}
			forward, err := lts.NewMonitor(svc)
			if err != nil {
				t.Fatal(err)
			}
			reversed, err := lts.NewMonitor(svc)
			if err != nil {
				t.Fatal(err)
			}
			for i := range inputs {
				check("forward", forward, i)
				check("reversed", reversed, len(inputs)-1-i)
				check("fresh", nil, i)
			}
			t.Logf("%d inputs, %d accepted", len(inputs), accepted)
		})
	}
}
