package compose

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// fingerprintFile pins the explored product graph of a few corpus cells under
// every explorer configuration: a digest of the keys, edges, depths and frontier, plus the
// state, transition and reduction counts. Verdict goldens only see what the
// trace and bisimulation checks report; this one sees every state key and
// every state number, so a change to product stepping that moves a single
// key byte or reorders discovery fails here.
var fingerprintFile = filepath.Join("testdata", "product_fingerprint.golden")

// fingerprintCells are the pinned explorations.
var fingerprintCells = []struct {
	name, spec string
	cfg        Config
}{
	// The verify-deep benchmark bounds: one large truncated product.
	{"multiinstance/deep", "multiinstance", Config{
		ChannelCap: 1,
		Limits:     lts.Limits{MaxObsDepth: 4, MaxStates: 1000000},
		Reductions: RedPOR.With(RedSymmetry),
	}},
	// Capacity 2 under duplication: fault moves and multi-message queues.
	{"transport/cap2/dup", "transport", Config{
		ChannelCap: 2,
		Limits:     lts.Limits{MaxObsDepth: DefaultObsDepth, MaxStates: lts.DefaultMaxStates},
		Faults:     FaultModel{Duplication: true},
	}},
	// Symmetry over a ring at the CLI defaults.
	{"multiring/por+symmetry", "multiring", Config{
		ChannelCap: 1,
		Limits:     lts.Limits{MaxObsDepth: DefaultObsDepth, MaxStates: lts.DefaultMaxStates},
		Reductions: RedPOR.With(RedSymmetry),
	}},
	// A MaxStates-truncated product: the cap, not the observable bound,
	// cuts the exploration, so this cell pins which prefix it keeps.
	{"multiring/cap2/maxstates5000", "multiring", Config{
		ChannelCap: 2,
		Limits:     lts.Limits{MaxObsDepth: DefaultObsDepth, MaxStates: 5000},
	}},
}

// fingerprintExplorers run the one explorer inline and on two workers, each
// over the in-memory and the spilling visited index.
var fingerprintExplorers = []struct {
	name  string
	apply func(*Config)
}{
	{"serial", func(*Config) {}},
	{"parallel2", func(c *Config) { c.Workers = 2 }},
	{"spill", func(c *Config) { c.Reductions = c.effectiveReductions().With(RedSpill) }},
	{"spill-parallel2", func(c *Config) {
		c.Reductions = c.effectiveReductions().With(RedSpill)
		c.Workers = 2
	}},
}

// graphFingerprint digests every per-state field of an explored graph in
// state-number order, then the sorted frontier.
func graphFingerprint(g *lts.Graph) string {
	h := sha256.New()
	putInt := func(v int) {
		var b [binary.MaxVarintLen64]byte
		h.Write(b[:binary.PutVarint(b[:], int64(v))])
	}
	putStr := func(s string) {
		putInt(len(s))
		h.Write([]byte(s))
	}
	putInt(len(g.Keys))
	for s, key := range g.Keys {
		putStr(key)
		putInt(g.Depth[s])
		putInt(g.ObsDepth[s])
		putInt(len(g.Out(s)))
		for _, e := range g.Out(s) {
			putStr(g.Label(e.Label).Key())
			putInt(int(e.To))
		}
	}
	frontier := g.FrontierStates()
	putInt(len(frontier))
	for _, s := range frontier {
		putInt(s)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func renderFingerprints(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, cell := range fingerprintCells {
		src, err := os.ReadFile(filepath.Join("..", "..", "specs", cell.spec+".spec"))
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Derive(lotos.MustParse(string(src)), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range fingerprintExplorers {
			cfg := cell.cfg
			cfg.SpillDir = t.TempDir()
			ex.apply(&cfg)
			sys, err := New(d.Entities, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sys.Explore()
			if err != nil {
				t.Fatalf("%s/%s: %v", cell.name, ex.name, err)
			}
			ri := sys.ReductionInfo()
			fmt.Fprintf(&b, "%s %s states=%d transitions=%d frontier=%d orbits=%d ample=%d graph=%s\n",
				cell.name, ex.name, g.NumStates(), g.NumTransitions(), len(g.FrontierStates()),
				ri.OrbitsCollapsed, ri.AmpleHits, graphFingerprint(g))
		}
	}
	return b.String()
}

// serviceFingerprintFile pins the explored service graph of every corpus
// spec, as lts.ExploreSpec builds it for Verify: keys, depths, observable
// depths, edges and frontier, digested by graphFingerprint.
var serviceFingerprintFile = filepath.Join("testdata", "service_fingerprint.golden")

// serviceFingerprintBounds are the service explorations pinned per spec:
// the verify CLI's defaults for every corpus spec, plus the verify-deep
// benchmark bounds for multiinstance.
var serviceFingerprintBounds = []struct {
	name string
	lim  lts.Limits
	only string // when set, the one spec explored at these bounds
}{
	{"defaults", lts.Limits{MaxObsDepth: DefaultObsDepth, MaxStates: lts.DefaultMaxStates}, ""},
	{"deep", lts.Limits{MaxObsDepth: 4, MaxStates: 1000000}, "multiinstance"},
}

func renderServiceFingerprints(t *testing.T) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, bound := range serviceFingerprintBounds {
		for _, path := range paths {
			name := strings.TrimSuffix(filepath.Base(path), ".spec")
			if bound.only != "" && name != bound.only {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.Derive(lotos.MustParse(string(src)), core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			g, err := lts.ExploreSpec(d.Service.Spec, bound.lim)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, bound.name, err)
			}
			fmt.Fprintf(&b, "%s/%s states=%d transitions=%d frontier=%d graph=%s\n",
				name, bound.name, g.NumStates(), g.NumTransitions(), len(g.FrontierStates()), graphFingerprint(g))
		}
	}
	return b.String()
}

// TestServiceGraphFingerprint asserts that every pinned service exploration
// is byte-identical to the recorded golden. To re-record deliberately,
// delete the golden file and run this test once: it writes the file and
// fails, asking for a re-run.
func TestServiceGraphFingerprint(t *testing.T) {
	checkGolden(t, serviceFingerprintFile, renderServiceFingerprints(t), "service graph fingerprints")
}

// TestProductGraphFingerprint asserts that every pinned exploration is
// byte-identical to the recorded golden. To re-record deliberately, delete
// the golden file and run this test once: it writes the file and fails,
// asking for a re-run.
func TestProductGraphFingerprint(t *testing.T) {
	checkGolden(t, fingerprintFile, renderFingerprints(t), "product graph fingerprints")
}

// checkGolden compares got with the golden file, recording the file and
// failing when it does not exist yet.
func checkGolden(t *testing.T, file, got, what string) {
	t.Helper()
	want, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; re-run to compare", file)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differ from %s:\n got:\n%s\nwant:\n%s", what, file, got, want)
	}
}
