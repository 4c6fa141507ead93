package protoderive

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fsm"
	"repro/internal/sim"
	"repro/internal/wire"
)

// goldenLockstepFile pins the runtime executions of the lockstep core: every
// corpus session under both engines, every fault-model witness replay at
// capacity 1, and the smoke cluster scenario's fingerprint.
var goldenLockstepFile = filepath.Join("testdata", "lockstep.golden")

// goldenFleetCap is the compilation cap of the golden's FSM fleets: small
// enough that the recursive corpus entities fall back to the interpreter
// quickly (a mixed fleet) instead of exploring to the default cap.
const goldenFleetCap = 256

// renderGoldenLockstep renders the three sections of the lockstep golden.
func renderGoldenLockstep(t *testing.T) string {
	t.Helper()
	protos := corpusProtocols(t)
	names := make([]string, 0, len(protos))
	for name := range protos {
		names = append(names, name)
	}
	sort.Strings(names)
	engines := []sim.Engine{sim.EngineAST, sim.EngineFSM}

	var b strings.Builder
	// Sessions: seeds 0-7 per spec and engine, MaxEvents 24, advanced in
	// quanta of three sweeps as the cluster simulator drives them.
	for _, name := range names {
		p := protos[name]
		for _, engine := range engines {
			for seed := int64(0); seed < 8; seed++ {
				cfg := sim.Config{Seed: seed, MaxEvents: 24, Engine: engine}
				if engine == sim.EngineFSM {
					cfg.Fleet = p.fleet(goldenFleetCap)
				}
				s, err := sim.NewSession(cloneEntities(p.d.Entities), cfg)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, engine, seed, err)
				}
				for done := false; !done; {
					if _, done, err = s.StepN(3); err != nil {
						t.Fatalf("%s/%s/%d: %v", name, engine, seed, err)
					}
				}
				res := s.Result()
				fmt.Fprintf(&b, "session %s/%s/%d sweeps=%d sent=%d delivered=%d %s\n",
					name, engine, seed, s.Sweeps(), res.Medium.Sent, res.Medium.Delivered, wire.CanonicalResult(res))
				s.Close()
			}
		}
	}

	// Replays: every capacity-1 cell of the three fault models that
	// carries a witness, through both engines.
	faults := []FaultModel{{Loss: true}, {Duplication: true}, {Reorder: true}}
	for _, name := range names {
		p := protos[name]
		opts := matrixOpts
		opts.ChannelCap = 1
		if name == "multiinstance" || name == "multiring" {
			opts.MaxStates = 4000
		}
		cells, err := p.VerifyMatrix(faults, &opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, cell := range cells {
			if cell.Report.Witness == nil {
				continue
			}
			for _, engine := range engines {
				var fleet *fsm.Fleet
				if engine == sim.EngineFSM {
					fleet = p.fleet(goldenFleetCap)
				}
				res, err := sim.ReplayWitnessEngine(cloneEntities(p.d.Entities), cell.Report.Witness.inner, engine, fleet)
				if err != nil {
					t.Fatalf("%s/%s/%s replay: %v", name, cell.Faults, engine, err)
				}
				fmt.Fprintf(&b, "replay %s/cap1/%s/%s terminated=%v deadlocked=%v steps=%d medium=%+v trace=%s\n",
					name, cell.Faults, engine, res.Terminated, res.Deadlocked, res.Steps, res.MediumStats,
					strings.Join(res.Trace, " "))
			}
		}
	}

	// Cluster: the smoke scenario's deterministic fingerprint.
	sc, err := cluster.LoadScenario(filepath.Join("scenarios", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(r.Fingerprint())
	return b.String()
}

// TestLockstepGolden asserts that the lockstep executions are byte-identical
// to the recorded golden file: the scheduler core, the witness replay path
// and the outcome classification behind every line must not drift. To
// re-record deliberately, delete the golden file and run this test once: it
// writes the file and fails, asking for a re-run.
func TestLockstepGolden(t *testing.T) {
	got := renderGoldenLockstep(t)
	want, err := os.ReadFile(goldenLockstepFile)
	if os.IsNotExist(err) {
		if err := os.WriteFile(goldenLockstepFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; re-run to compare", goldenLockstepFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", goldenLockstepFile, i+1, g, w)
		}
	}
}
