package lts_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// fuzzMaxLabels caps a fuzzed trace, which keeps the reference
// exploration of the recursive anbn service small.
const fuzzMaxLabels = 12

// FuzzMonitorAccepts holds the monitor to the bounded two-step check on
// arbitrary label sequences. The first byte picks the service — anbn, the
// recursive one, or nesteddisable, the deepest disabling — and every later
// byte one label of its alphabet, δ included. The monitor's verdict, on one
// monitor per service shared by every input, must equal that of
// ExploreSpec to observable depth len+2 followed by AcceptsTrace.
func FuzzMonitorAccepts(f *testing.F) {
	type target struct {
		svc      *lotos.Spec
		alphabet []string
		monitor  *lts.Monitor
	}
	var targets []target
	for _, name := range []string{"anbn", "nesteddisable"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "specs", name+".spec"))
		if err != nil {
			f.Fatal(err)
		}
		svc, err := lotos.Parse(string(src))
		if err != nil {
			f.Fatal(err)
		}
		m, err := lts.NewMonitor(svc)
		if err != nil {
			f.Fatal(err)
		}
		targets = append(targets, target{svc, alphabet(svc), m})
	}
	f.Add([]byte{0, 0, 0, 1, 1})
	f.Add([]byte{0, 0, 1, 1})
	f.Add([]byte{0, 1})
	f.Add([]byte{1, 0, 1, 6})
	f.Add([]byte{1, 3, 1, 4})
	f.Add([]byte{1, 2, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tg := targets[int(data[0])%len(targets)]
		var trace []string
		for _, b := range data[1:min(len(data), fuzzMaxLabels+1)] {
			trace = append(trace, tg.alphabet[int(b)%len(tg.alphabet)])
		}
		got, err := tg.monitor.Check(trace, 0)
		if err != nil {
			t.Fatalf("%q: %v", trace, err)
		}
		g, err := lts.ExploreSpec(lotos.CloneSpec(tg.svc), lts.Limits{MaxObsDepth: len(trace) + 2, MaxStates: uncapped})
		if err != nil {
			t.Fatal(err)
		}
		tr := lts.JoinTrace(trace)
		want := lts.TraceVerdict{
			Accepted:   lts.AcceptsTrace(g, tr),
			Terminates: lts.AcceptsTrace(g, lts.AppendTrace(tr, "delta")),
		}
		if got != want {
			t.Fatalf("%q: monitor %+v, bounded explore %+v", trace, got, want)
		}
	})
}
