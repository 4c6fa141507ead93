package fsm

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

func deriveFor(t testing.TB, src string) *core.Derivation {
	t.Helper()
	d, err := core.Derive(lotos.MustParse(src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func exploreEntity(t testing.TB, sp *lotos.Spec) *lts.Graph {
	t.Helper()
	clone := lotos.CloneSpec(sp)
	env, err := lts.EnvFor(clone)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lts.Explore(env, clone.Root.Expr, lts.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCompileMatchesExploration(t *testing.T) {
	d := deriveFor(t, "SPEC a1; exit >> (b2; exit ||| c3; exit) >> d1; exit ENDSPEC")
	for _, p := range d.Places {
		m, err := Compile(p, d.Entities[p], Config{})
		if err != nil {
			t.Fatalf("place %d: %v", p, err)
		}
		g := exploreEntity(t, d.Entities[p])
		if m.NumStates() != g.NumStates() || m.NumTransitions() != g.NumTransitions() {
			t.Fatalf("place %d: machine %d/%d states/transitions, exploration %d/%d",
				p, m.NumStates(), m.NumTransitions(), g.NumStates(), g.NumTransitions())
		}
		// The exact layer must reproduce the exploration edge-for-edge in
		// derivation order — that is what makes the FSM engine's random
		// choices and witness transition indices line up with the AST
		// interpreter's.
		mg := m.Graph()
		for s := 0; s < g.NumStates(); s++ {
			if len(mg.Out(s)) != len(g.Out(s)) {
				t.Fatalf("place %d state %d: %d edges vs %d", p, s, len(mg.Out(s)), len(g.Out(s)))
			}
			for i, e := range g.Out(s) {
				me := mg.Out(s)[i]
				ml, l := mg.Label(me.Label), g.Label(e.Label)
				if me.To != e.To || ml.Key() != l.Key() {
					t.Fatalf("place %d state %d edge %d: %v->%d vs %v->%d",
						p, s, i, ml, me.To, l, e.To)
				}
			}
		}
		if !equiv.WeakBisimilar(mg, g) {
			t.Errorf("place %d: exact layer not weakly bisimilar to exploration", p)
		}
		if !equiv.WeakBisimilar(m.MinGraph(), g) {
			t.Errorf("place %d: minimized layer not weakly bisimilar to exploration", p)
		}
		if want := equiv.NumClassesWeak(g); m.MinStates() != want {
			t.Errorf("place %d: MinStates = %d, NumClassesWeak = %d", p, m.MinStates(), want)
		}
	}
}

func TestCompileDispatchRows(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; exit ENDSPEC")
	m, err := Compile(1, d.Entities[1], Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Initial state of entity 1 offers the service primitive a1.
	offers, edges := m.Offers(0)
	if len(offers) != 1 || offers[0].Kind != lotos.EvService || offers[0].Name != "a" {
		t.Fatalf("initial offers = %v", offers)
	}
	if m.Ops[edges[0]] != OpService {
		t.Fatalf("offer edge op = %v", m.Ops[edges[0]])
	}
	if m.Flags[0]&HasService == 0 {
		t.Fatalf("initial flags = %v, want HasService", m.Flags[0])
	}
	// Somewhere in the machine there must be a send (entity 1 notifies
	// entity 2) and a delta.
	var sawSend, sawDelta bool
	for _, op := range m.Ops {
		switch op {
		case OpSend:
			sawSend = true
		case OpDelta:
			sawDelta = true
		}
	}
	if !sawSend || !sawDelta {
		t.Errorf("ops missing dispatch kinds: send=%v delta=%v", sawSend, sawDelta)
	}
}

func TestCompileDeterministic(t *testing.T) {
	d := deriveFor(t, "SPEC (a1; b2; exit [] c1; d2; exit) [> e2; d2; exit ENDSPEC")
	for _, p := range d.Places {
		m1, err1 := Compile(p, d.Entities[p], Config{})
		m2, err2 := Compile(p, d.Entities[p], Config{})
		if err1 != nil || err2 != nil {
			t.Fatalf("place %d: %v / %v", p, err1, err2)
		}
		m1.Table, m2.Table = nil, nil // tables compare by pointer identity
		if !reflect.DeepEqual(m1, m2) {
			t.Errorf("place %d: repeated compilation differs", p)
		}
	}
}

func TestCompileUnboundedRecursionFails(t *testing.T) {
	// Example 2 (a^n b^n): the derived entities stack one continuation per
	// recursion level, so their state spaces are unbounded.
	d := deriveFor(t, `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`)
	_, err := Compile(1, d.Entities[1], Config{MaxStates: 256})
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CompileError", err)
	}
	if ce.Place != 1 || ce.Cap != 256 || ce.States < 256 {
		t.Errorf("CompileError fields: %+v", ce)
	}
	if ce.Error() == "" || ce.Unwrap() != nil {
		t.Errorf("cap overflow: Error()=%q Unwrap()=%v", ce.Error(), ce.Unwrap())
	}
}

func TestCompileEntitiesMixedFleet(t *testing.T) {
	d := deriveFor(t, `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`)
	f := CompileEntities(d.Entities, Config{MaxStates: 256})
	if len(f.Machines)+len(f.Errors) != len(d.Entities) {
		t.Fatalf("fleet covers %d+%d of %d entities", len(f.Machines), len(f.Errors), len(d.Entities))
	}
	if len(f.Errors) == 0 {
		t.Fatalf("expected at least one entity over the cap, got none (machines=%d)", len(f.Machines))
	}
	for p, m := range f.Machines {
		if m.Table != f.Table {
			t.Errorf("place %d: machine not on the fleet's shared table", p)
		}
		if f.Compiled(p) != true {
			t.Errorf("Compiled(%d) = false", p)
		}
	}
	for p := range f.Errors {
		if f.Compiled(p) {
			t.Errorf("Compiled(%d) = true for failed entity", p)
		}
	}

	// A terminating fleet compiles fully.
	d2 := deriveFor(t, "SPEC a1; b2; c3; exit ENDSPEC")
	f2 := CompileEntities(d2.Entities, Config{})
	if len(f2.Errors) != 0 || len(f2.Machines) != len(d2.Entities) {
		t.Fatalf("terminating fleet: machines=%d errors=%v", len(f2.Machines), f2.Errors)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpInternal: "internal", OpDelta: "delta", OpSend: "send",
		OpRecv: "recv", OpRecvFlush: "recv-flush", OpService: "service",
		Op(99): "Op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", uint8(op), got, want)
		}
	}
}
