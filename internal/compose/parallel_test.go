package compose

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// corpusLimits avoids MaxStates truncation on every corpus spec, so the
// cross-check covers each product up to its observable bound. Capped
// explorations are pinned separately: the explorer merges every level in
// frontier order whatever the worker count, so a cap cuts the same prefix
// (see the cap-truncated cell of TestProductGraphFingerprint).
var corpusLimits = lts.Limits{MaxObsDepth: 5, MaxStates: 400000}

func exploreCorpusSpec(t *testing.T, entities map[int]*lotos.Spec, cfg Config) *lts.Graph {
	t.Helper()
	sys, err := New(entities, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.Explore()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// adjacencyByKey renders each state's sorted outgoing edge set keyed by the
// state's key — a numbering-independent graph signature.
func adjacencyByKey(g *lts.Graph) map[string][]string {
	adj := make(map[string][]string, len(g.Keys))
	for s := range g.Keys {
		es := g.Out(s)
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = g.Table.Name(e.Label) + "\x00" + g.Keys[e.To]
		}
		sort.Strings(out)
		adj[g.Keys[s]] = out
	}
	return adj
}

// TestParallelMatchesSerialOnCorpus cross-checks the explorer on four
// workers against inline derivation over the full specs/ corpus: identical
// state-key sets, identical sizes, and weakly bisimilar graphs.
func TestParallelMatchesSerialOnCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus specs found: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.Derive(lotos.MustParse(string(src)), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			serial := exploreCorpusSpec(t, d.Entities, Config{Limits: corpusLimits})
			par := exploreCorpusSpec(t, d.Entities, Config{Limits: corpusLimits, Workers: 4})

			// Truncation at the observable bound is fine (the cut depends
			// only on the depth fixpoint); the cap must not be the
			// truncating factor, or the check would cover less than the
			// observable bound.
			if serial.NumStates() >= corpusLimits.MaxStates || par.NumStates() >= corpusLimits.MaxStates {
				t.Fatalf("state cap hit (serial=%d parallel=%d); raise corpusLimits.MaxStates",
					serial.NumStates(), par.NumStates())
			}
			if serial.NumStates() != par.NumStates() || serial.NumTransitions() != par.NumTransitions() {
				t.Errorf("sizes differ: serial %d/%d, parallel %d/%d",
					serial.NumStates(), serial.NumTransitions(), par.NumStates(), par.NumTransitions())
			}
			sk := append([]string{}, serial.Keys...)
			pk := append([]string{}, par.Keys...)
			sort.Strings(sk)
			sort.Strings(pk)
			if !reflect.DeepEqual(sk, pk) {
				t.Error("state key sets differ between serial and parallel exploration")
			}
			// Per-key adjacency equality: the graphs are isomorphic under the
			// key bijection — strictly stronger than weak bisimilarity, and
			// cheap enough for the 100k+-state corpus entries.
			if !reflect.DeepEqual(adjacencyByKey(serial), adjacencyByKey(par)) {
				t.Error("per-key adjacency differs between serial and parallel exploration")
			}
			// The saturation-based bisimulation check is quadratic in states;
			// run it as an extra semantic check on the small graphs only.
			if serial.NumStates() <= 5000 && !equiv.WeakBisimilar(serial, par) {
				t.Error("serial and parallel graphs are not weakly bisimilar")
			}
			if len(serial.Deadlocks()) != len(par.Deadlocks()) {
				t.Errorf("deadlock counts differ: %d vs %d", len(serial.Deadlocks()), len(par.Deadlocks()))
			}
		})
	}
}

// TestParallelExploreDeterministic requires two fresh parallel explorations
// of the same entities to produce bit-identical graphs (state numbering
// included), despite worker scheduling nondeterminism.
func TestParallelExploreDeterministic(t *testing.T) {
	d, err := core.Derive(lotos.MustParse("SPEC a1; b2; c3; exit [> d3; exit ENDSPEC"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *lts.Graph {
		return exploreCorpusSpec(t, d.Entities, Config{Limits: corpusLimits, Workers: 8})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		t.Fatal("state numbering differs between identical parallel runs")
	}
	// Label ids follow the order in which workers first derive each local
	// transition, so edges are compared by label key and target.
	for s := range a.Keys {
		ea, eb := a.Out(s), b.Out(s)
		if len(ea) != len(eb) {
			t.Fatalf("state %d: %d edges vs %d between identical parallel runs", s, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i].To != eb[i].To || a.Table.Key(ea[i].Label) != b.Table.Key(eb[i].Label) {
				t.Fatalf("state %d edge %d differs between identical parallel runs", s, i)
			}
		}
	}
}
