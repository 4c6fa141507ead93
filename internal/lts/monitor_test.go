package lts_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// anbnTrace returns a1^n b2^m.
func anbnTrace(n, m int) []string {
	var tr []string
	for i := 0; i < n; i++ {
		tr = append(tr, "a1")
	}
	for i := 0; i < m; i++ {
		tr = append(tr, "b2")
	}
	return tr
}

// TestMonitorRecursiveExact: the recursive service (a1)^n (b2)^n is checked
// exactly at every length, with no depth bound, on one monitor.
func TestMonitorRecursiveExact(t *testing.T) {
	m, err := lts.NewMonitor(corpusServices(t)["anbn"])
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 40; n++ {
		for _, c := range []struct {
			tr   []string
			want lts.TraceVerdict
		}{
			{anbnTrace(n, n), lts.TraceVerdict{Accepted: true, Terminates: true}},
			{anbnTrace(n, n-1), lts.TraceVerdict{Accepted: true}},
			{anbnTrace(n, n+1), lts.TraceVerdict{}},
			{append(anbnTrace(n, n), "a1"), lts.TraceVerdict{}},
		} {
			got, err := m.Check(c.tr, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("%q: got %+v, want %+v", c.tr, got, c.want)
			}
		}
	}
}

// TestMonitorStateBudget: an exhausted budget is an error wrapping
// ErrStateBudget, never a rejection, and the budget applies to each check
// on its own — whatever ran before on the shared monitor.
func TestMonitorStateBudget(t *testing.T) {
	svc := corpusServices(t)["anbn"]
	m, err := lts.NewMonitor(svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Check(anbnTrace(3, 3), 8); !errors.Is(err, lts.ErrStateBudget) {
		t.Fatalf("capped check: err = %v, want ErrStateBudget", err)
	}
	if v, err := m.Check(anbnTrace(3, 3), 0); err != nil || !v.Accepted {
		t.Fatalf("uncapped check after a capped one: %+v, %v", v, err)
	}

	// need[k] is what a fresh monitor holds after checking a1^k b2^k: the
	// least budget under which that check succeeds.
	type probe struct {
		tr     []string
		budget int
		fits   bool
	}
	var probes []probe
	for k := 1; k <= 4; k++ {
		fresh, err := lts.NewMonitor(svc)
		if err != nil {
			t.Fatal(err)
		}
		tr := anbnTrace(k, k)
		if _, err := fresh.Check(tr, 0); err != nil {
			t.Fatal(err)
		}
		need := lts.MonitorStates(fresh)
		probes = append(probes, probe{tr, need - 1, false}, probe{tr, need, true})
	}
	run := func(order string, ps []probe) {
		for _, p := range ps {
			v, err := lts.CheckServiceTrace(svc, p.tr, p.budget)
			switch {
			case p.fits && (err != nil || !v.Accepted || !v.Terminates):
				t.Fatalf("%s: %q under %d states: %+v, %v; want accepted", order, p.tr, p.budget, v, err)
			case !p.fits && !errors.Is(err, lts.ErrStateBudget):
				t.Fatalf("%s: %q under %d states: %+v, %v; want ErrStateBudget", order, p.tr, p.budget, v, err)
			}
			// Grow the shared monitor well past every probe's budget.
			if _, err := lts.CheckServiceTrace(svc, anbnTrace(30, 30), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	lts.ResetMonitorCache()
	run("forward", probes)
	lts.ResetMonitorCache()
	slices.Reverse(probes)
	run("reversed", probes)
}

// renamed returns a copy of svc whose service primitives carry names drawn
// from seed: the same behaviour over another alphabet. It also returns the
// renaming of rendered labels.
func renamed(svc *lotos.Spec, seed int64) (*lotos.Spec, func(string) string) {
	r := rand.New(rand.NewSource(seed))
	names := map[string]string{}
	name := func(old string) string {
		if _, ok := names[old]; !ok {
			names[old] = fmt.Sprintf("%sq%c%c", old, 'a'+r.Intn(26), 'a'+r.Intn(26))
		}
		return names[old]
	}
	label := func(l string) string {
		ev, err := lotos.ParseEventID(l)
		if err != nil {
			return l // delta
		}
		return lotos.ServiceEvent(name(ev.Name), ev.Place).String()
	}
	out := lotos.CloneSpec(svc)
	lotos.WalkSpec(out, func(e lotos.Expr) {
		switch x := e.(type) {
		case *lotos.Prefix:
			if x.Ev.Kind == lotos.EvService {
				x.Ev.Name = name(x.Ev.Name)
			}
		case *lotos.Parallel:
			for i, g := range x.Sync {
				x.Sync[i] = label(g)
			}
		}
	})
	return out, label
}

// TestMonitorCacheKeysOnContent: copies and print/parse round trips of a
// service share its monitor; renamings of it do not.
func TestMonitorCacheKeysOnContent(t *testing.T) {
	for name, svc := range corpusServices(t) {
		lts.ResetMonitorCache()
		tr := lts.ParseTrace(lts.WeakTraces(mustExplore(t, svc, 6), 4)[1])
		if v, err := lts.CheckServiceTrace(svc, tr, 0); err != nil || !v.Accepted {
			t.Fatalf("%s: %q: %+v, %v", name, tr, v, err)
		}
		m := lts.CachedMonitor(svc)
		if m == nil {
			t.Fatalf("%s: checked service has no cached monitor", name)
		}
		roundTrip, err := lotos.Parse(svc.String())
		if err != nil {
			t.Fatal(err)
		}
		for how, sp := range map[string]*lotos.Spec{"clone": lotos.CloneSpec(svc), "round trip": roundTrip} {
			if lts.CachedMonitor(sp) != m {
				t.Fatalf("%s: the %s misses the service's monitor", name, how)
			}
			if _, err := lts.CheckServiceTrace(sp, tr, 0); err != nil {
				t.Fatal(err)
			}
		}
		if n := lts.MonitorCacheLen(); n != 1 {
			t.Fatalf("%s: %d cached monitors after checking copies of one service", name, n)
		}
		for seed := int64(1); seed <= 2; seed++ {
			sp, label := renamed(svc, seed)
			if lts.CachedMonitor(sp) != nil {
				t.Fatalf("%s: renaming %d hits the original's monitor", name, seed)
			}
			rtr := make([]string, len(tr))
			for i, l := range tr {
				rtr[i] = label(l)
			}
			if v, err := lts.CheckServiceTrace(sp, rtr, 0); err != nil || !v.Accepted {
				t.Fatalf("%s: renaming %d rejects the renamed trace %q: %+v, %v", name, seed, rtr, v, err)
			}
			if v, err := lts.CheckServiceTrace(sp, tr, 0); err != nil || v.Accepted {
				t.Fatalf("%s: renaming %d accepts the original trace %q: %+v, %v", name, seed, tr, v, err)
			}
			if n := lts.MonitorCacheLen(); n != int(seed)+1 {
				t.Fatalf("%s: %d cached monitors after renaming %d", name, n, seed)
			}
		}
	}
}

// TestMonitorCacheKeysOnMessageOccurrences: a spec with message events
// renders, once instantiated, occurrence paths built from node numbers the
// printed form omits. Two copies of one text, one numbered, have different
// traces and must not share a monitor.
func TestMonitorCacheKeysOnMessageOccurrences(t *testing.T) {
	lts.ResetMonitorCache()
	const src = "SPEC P WHERE PROC P = s2(7); exit END ENDSPEC"
	plain, numbered := lotos.MustParse(src), lotos.MustParse(src)
	lotos.Number(numbered)
	for _, c := range []struct {
		sp           *lotos.Spec
		own, foreign string
	}{
		{plain, "s2(#0/0,7)", "s2(#0/1,7)"},
		{numbered, "s2(#0/1,7)", "s2(#0/0,7)"},
	} {
		if v, err := lts.CheckServiceTrace(c.sp, []string{c.own}, 0); err != nil || !v.Accepted {
			t.Fatalf("%s rejected: %+v, %v", c.own, v, err)
		}
		if v, err := lts.CheckServiceTrace(c.sp, []string{c.foreign}, 0); err != nil || v.Accepted {
			t.Fatalf("%s accepted: %+v, %v", c.foreign, v, err)
		}
	}
}

// TestMonitorCacheBound: however many services are checked, the cache
// never holds more than its bound.
func TestMonitorCacheBound(t *testing.T) {
	lts.ResetMonitorCache()
	svc := corpusServices(t)["example3"]
	for seed := int64(1); seed <= 3*lts.MonitorCacheSize; seed++ {
		sp, _ := renamed(svc, seed)
		if _, err := lts.CheckServiceTrace(sp, nil, 0); err != nil {
			t.Fatal(err)
		}
		if n := lts.MonitorCacheLen(); n < 0 || n > lts.MonitorCacheSize {
			t.Fatalf("after %d services the cache holds %d monitors (bound %d)", seed, n, lts.MonitorCacheSize)
		}
	}
	if n := lts.MonitorCacheLen(); n != lts.MonitorCacheSize {
		t.Fatalf("cache holds %d monitors, want its bound %d", n, lts.MonitorCacheSize)
	}
}

func mustExplore(t testing.TB, svc *lotos.Spec, depth int) *lts.Graph {
	t.Helper()
	g, err := lts.ExploreSpec(lotos.CloneSpec(svc), lts.Limits{MaxObsDepth: depth, MaxStates: uncapped})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMonitorConcurrent: eight goroutines check corpus traces on one
// shared monitor, each in its own order, and get the bounded explorer's
// verdicts; eight more check anbn traces through the cache under mixed
// budgets, which keeps replacing the cached monitor, and get the verdicts
// of fresh monitors. Run under -race by make check.
func TestMonitorConcurrent(t *testing.T) {
	const workers = 8
	services := corpusServices(t)
	for _, name := range []string{"multiinstance", "nesteddisable"} {
		svc := services[name]
		ref := &boundedRef{t: t, svc: svc, graphs: map[int]*lts.Graph{}}
		inputs := monitorInputs(svc, ref)
		want := make([]lts.TraceVerdict, len(inputs))
		for i, in := range inputs {
			want[i] = ref.verdict(in)
		}
		m, err := lts.NewMonitor(svc)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range inputs {
					i := (k*(2*w+1) + w*len(inputs)/workers) % len(inputs)
					got, err := m.Check(inputs[i], 0)
					if err == nil && got != want[i] {
						err = fmt.Errorf("%s: %q: monitor %+v, bounded explore %+v", name, inputs[i], got, want[i])
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	svc := services["anbn"]
	type job struct {
		tr     []string
		budget int
		want   lts.TraceVerdict
		budErr bool
	}
	var jobs []job
	for k := 1; k <= 6; k++ {
		for _, budget := range []int{0, 12, 16, 20} {
			for _, tr := range [][]string{anbnTrace(k, k), anbnTrace(k, k+1)} {
				fresh, err := lts.NewMonitor(svc)
				if err != nil {
					t.Fatal(err)
				}
				v, err := fresh.Check(tr, budget)
				jobs = append(jobs, job{tr, budget, v, errors.Is(err, lts.ErrStateBudget)})
			}
		}
	}
	lts.ResetMonitorCache()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range jobs {
				j := jobs[(k+w*7)%len(jobs)]
				v, err := lts.CheckServiceTrace(lotos.CloneSpec(svc), j.tr, j.budget)
				if errors.Is(err, lts.ErrStateBudget) != j.budErr || (!j.budErr && (err != nil || v != j.want)) {
					errs <- fmt.Errorf("%q under %d states: %+v, %v; a fresh monitor gives %+v, budget error %v", j.tr, j.budget, v, err, j.want, j.budErr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
