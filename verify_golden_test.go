package protoderive

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenMatrixFile pins the full verification report of every corpus cell at
// the CLI defaults: the Report summary (diff examples included) and the
// witness step list.
var goldenMatrixFile = filepath.Join("testdata", "verify_matrix.golden")

// goldenMatrixOpts are cmd/verify's defaults: observable depth 8 and the
// default 20,000-state exploration cap.
var goldenMatrixOpts = VerifyOptions{ObsDepth: 8, MaxStates: 20000}

// renderGoldenMatrix verifies every corpus spec at channel capacities 1 and
// 2 under the four fault-matrix models and renders each cell's summary and
// witness. Equivalence-engine timings are left out (they are wall clock);
// everything else in the report is deterministic.
func renderGoldenMatrix(t *testing.T) string {
	t.Helper()
	protos := corpusProtocols(t)
	names := make([]string, 0, len(protos))
	for name := range protos {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		for _, chanCap := range []int{1, 2} {
			opts := goldenMatrixOpts
			opts.ChannelCap = chanCap
			cells, err := protos[name].VerifyMatrix(matrixModels, &opts)
			if err != nil {
				t.Fatalf("%s cap=%d: %v", name, chanCap, err)
			}
			for _, cell := range cells {
				fmt.Fprintf(&b, "=== %s/cap%d/%s\n", name, chanCap, cell.Faults)
				b.WriteString(cell.Report.Summary)
				w, err := json.Marshal(cell.Report.Witness)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "witness: %s\n", w)
			}
		}
	}
	return b.String()
}

// TestCorpusVerifyGoldenMatrix asserts that every cell's report is
// byte-identical to the recorded golden file. The fault-matrix test pins
// verdicts and witness kinds only; this pins the trace-diff examples and
// the witness steps as well. To re-record deliberately, delete the golden
// file and run this test once: it writes the file and fails, asking for a
// re-run.
func TestCorpusVerifyGoldenMatrix(t *testing.T) {
	got := renderGoldenMatrix(t)
	want, err := os.ReadFile(goldenMatrixFile)
	if os.IsNotExist(err) {
		if err := os.WriteFile(goldenMatrixFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; re-run to compare", goldenMatrixFile)
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
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", goldenMatrixFile, i+1, g, w)
		}
	}
}
