package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsm"
)

// TestSessionMatchesLockstepRun checks the seam identity: a Session stepped
// to completion — in one call or in small quanta — is the same execution as
// Run with Lockstep, under either engine, seed for seed.
func TestSessionMatchesLockstepRun(t *testing.T) {
	srcs := []string{
		"SPEC a1; b2; c3; exit ENDSPEC",
		"SPEC a1; exit ||| b2; exit ENDSPEC",
		"SPEC a1; b2; exit [] c1; d3; b2; exit ENDSPEC",
		`SPEC A WHERE PROC A = a1; b2; A END ENDSPEC`,
	}
	for _, src := range srcs {
		d := deriveFor(t, src)
		fleet := fsm.CompileEntities(d.Entities, fsm.Config{})
		for seed := int64(0); seed < 12; seed++ {
			cfg := Config{Seed: seed, Lockstep: true, MaxEvents: 16}
			want, err := Run(d.Entities, cfg)
			if err != nil {
				t.Fatalf("%s seed %d run: %v", src, seed, err)
			}
			for _, quantum := range []int{0, 1, 3} {
				for _, engine := range []Engine{EngineAST, EngineFSM} {
					scfg := cfg
					scfg.Engine = engine
					if engine == EngineFSM {
						scfg.Fleet = fleet
					}
					s, err := NewSession(d.Entities, scfg)
					if err != nil {
						t.Fatalf("%s seed %d session: %v", src, seed, err)
					}
					for {
						_, done, err := s.StepN(quantum)
						if err != nil {
							t.Fatalf("%s seed %d step: %v", src, seed, err)
						}
						if done {
							break
						}
					}
					got := s.Result()
					s.Close()
					if !reflect.DeepEqual(got.TraceStrings(), want.TraceStrings()) {
						t.Fatalf("%s seed %d engine %s quantum %d: trace %v, want %v",
							src, seed, engine, quantum, got.TraceStrings(), want.TraceStrings())
					}
					if got.Completed != want.Completed || got.Deadlocked != want.Deadlocked ||
						got.Stopped != want.Stopped || got.TimedOut != want.TimedOut {
						t.Fatalf("%s seed %d engine %s quantum %d: outcome %+v, want %+v",
							src, seed, engine, quantum, got, want)
					}
					if got.Medium.Sent != want.Medium.Sent || got.Medium.Delivered != want.Medium.Delivered {
						t.Fatalf("%s seed %d engine %s quantum %d: medium %+v, want %+v",
							src, seed, engine, quantum, got.Medium, want.Medium)
					}
				}
			}
		}
	}
}

// TestFleetSessionRequiresCompiledFleet checks the fleet-session contract:
// every place compiled, and the execution equal to the entity-map session.
func TestFleetSessionRequiresCompiledFleet(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; c3; exit ENDSPEC")
	fleet := fsm.CompileEntities(d.Entities, fsm.Config{})
	s, err := NewFleetSession(fleet, Config{Seed: 5, MaxEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := s.StepN(0); err != nil || !done {
		t.Fatalf("fleet session: done=%v err=%v", done, err)
	}
	got := s.Result()
	s.Close()
	if !got.Completed {
		t.Fatalf("fleet session did not complete: %+v", got.Blocked)
	}
	want, err := Run(d.Entities, Config{Seed: 5, MaxEvents: 16, Lockstep: true, Engine: EngineFSM, Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TraceStrings(), want.TraceStrings()) {
		t.Fatalf("fleet session trace %v, want %v", got.TraceStrings(), want.TraceStrings())
	}

	// An unbounded entity (anbn-style recursion) cannot join a fleet
	// session: the constructor must reject fleets with compile fallbacks.
	du := deriveFor(t, `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`)
	partial := fsm.CompileEntities(du.Entities, fsm.Config{MaxStates: 64})
	if len(partial.Errors) == 0 {
		t.Skip("expected a compile fallback to exercise rejection")
	}
	if _, err := NewFleetSession(partial, Config{Seed: 1}); err == nil {
		t.Error("fleet session accepted a fleet with compile fallbacks")
	}

	// Wall-clock options are incompatible with the synchronous scheduler.
	if _, err := NewSession(d.Entities, Config{Seed: 1, Reliable: true}); err == nil {
		t.Error("session accepted the ARQ layer")
	}
}

// TestFleetSessionErrorIsDeterministic: with several places uncompiled the
// rejection names the lowest one, the same message on every call (the
// fleet's failures are a map, whose iteration order varies call to call).
func TestFleetSessionErrorIsDeterministic(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; c3; d4; exit ENDSPEC")
	fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: 1})
	if len(fleet.Errors) < 2 {
		t.Fatalf("want at least two uncompiled places, got %d", len(fleet.Errors))
	}
	lowest := -1
	for p := range fleet.Errors {
		if lowest < 0 || p < lowest {
			lowest = p
		}
	}
	_, err := NewFleetSession(fleet, Config{Seed: 1})
	if err == nil {
		t.Fatal("fleet session accepted a fleet with compile fallbacks")
	}
	if want := fmt.Sprintf("entity %d:", lowest); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the lowest failed place %d", err, lowest)
	}
	for i := 0; i < 20; i++ {
		if _, again := NewFleetSession(fleet, Config{Seed: 1}); again == nil || again.Error() != err.Error() {
			t.Fatalf("call %d: error %v, want %v", i, again, err)
		}
	}
}
