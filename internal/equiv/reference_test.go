package equiv

// Differential validation of the integer engine against the retained
// map/string reference checker (reference.go): for hand-picked law pairs
// and a randomized sweep of guarded behaviour expressions, every public
// verdict — WeakBisimilar, ObservationCongruent, StrongBisimilar,
// NumClassesWeak — must agree exactly, and so must the weak-trace engine's
// listing, equivalence verdict and diff examples against RefWeakTraces. The corpus-wide differential sweep
// (service vs composed graphs plus mutants) lives in the root package,
// which can import internal/compose.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lts"
)

// diffPairs are expression pairs spanning the interesting corners: τ
// absorption, internal choice, the root condition, δ, hiding and the
// parallel operators.
var diffPairs = [][2]string{
	{"a1; exit", "a1; exit"},
	{"a1; exit", "b1; exit"},
	{"a1; exit", "a1; stop"},
	{"i; a1; exit", "a1; exit"},
	{"a1; i; b2; exit", "a1; b2; exit"},
	{"exit >> b2; exit", "i; b2; exit"},
	{"a1; exit [] i; b1; exit", "a1; exit [] b1; exit"},
	{"i; a1; exit [] i; b1; exit", "a1; exit [] b1; exit"},
	{"a1; exit [] i; a1; exit", "i; a1; exit"},
	{"hide a1 in (a1; b2; exit)", "i; hide a1 in (b2; exit)"},
	{"a1; exit ||| b2; exit", "b2; exit ||| a1; exit"},
	{"a1; exit [> b2; exit", "a1; exit [] b2; exit"},
	{"exit [> b2; exit", "exit [] b2; exit"},
	{"exit", "stop"},
	{"a1; (b1; exit [] i; c1; exit) [] a1; c1; exit", "a1; (b1; exit [] i; c1; exit)"},
}

func assertAgreement(t *testing.T, name string, g1, g2 *lts.Graph) {
	t.Helper()
	if got, want := WeakBisimilar(g1, g2), RefWeakBisimilar(g1, g2); got != want {
		t.Errorf("%s: WeakBisimilar engine=%v reference=%v", name, got, want)
	}
	if got, want := ObservationCongruent(g1, g2), RefObservationCongruent(g1, g2); got != want {
		t.Errorf("%s: ObservationCongruent engine=%v reference=%v", name, got, want)
	}
	if got, want := StrongBisimilar(g1, g2), RefStrongBisimilar(g1, g2); got != want {
		t.Errorf("%s: StrongBisimilar engine=%v reference=%v", name, got, want)
	}
	for i, g := range []*lts.Graph{g1, g2} {
		if got, want := NumClassesWeak(g), RefNumClassesWeak(g); got != want {
			t.Errorf("%s: NumClassesWeak(g%d) engine=%d reference=%d", name, i+1, got, want)
		}
	}
	// The weak-trace engine against the reference string enumerator.
	const depth = 4
	r1, r2 := RefWeakTraces(g1, depth), RefWeakTraces(g2, depth)
	if got := lts.WeakTraces(g1, depth); !slices.Equal(got, r1) {
		t.Errorf("%s: WeakTraces engine=%q reference=%q", name, got, r1)
	}
	if got, want := WeakTraceEquivalent(g1, g2, depth), slices.Equal(r1, r2); got != want {
		t.Errorf("%s: WeakTraceEquivalent engine=%v reference=%v", name, got, want)
	}
	only1, only2 := TraceDiff(g1, g2, depth, 3)
	if want := firstMissing(r1, r2, 3); !slices.Equal(only1, want) {
		t.Errorf("%s: TraceDiff only-g1 engine=%q reference=%q", name, only1, want)
	}
	if want := firstMissing(r2, r1, 3); !slices.Equal(only2, want) {
		t.Errorf("%s: TraceDiff only-g2 engine=%q reference=%q", name, only2, want)
	}
}

// firstMissing returns the first limit traces of the sorted listing a that
// the sorted listing b lacks.
func firstMissing(a, b []string, limit int) []string {
	var out []string
	for _, tr := range a {
		if _, found := slices.BinarySearch(b, tr); !found && len(out) < limit {
			out = append(out, tr)
		}
	}
	return out
}

func TestEngineAgreesWithReferenceOnLawPairs(t *testing.T) {
	for _, pair := range diffPairs {
		g1, g2 := graphOf(t, pair[0]), graphOf(t, pair[1])
		assertAgreement(t, fmt.Sprintf("%q vs %q", pair[0], pair[1]), g1, g2)
	}
}

func TestEngineAgreesWithReferenceOnRandomExpressions(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		e1 := genLawExpr(r, 3)
		e2 := genLawExpr(r, 3)
		g1 := graphOfExpr(t, e1)
		g2 := graphOfExpr(t, e2)
		assertAgreement(t, fmt.Sprintf("random pair %d", i), g1, g2)
		// Self comparisons exercise the guaranteed-equivalent path.
		assertAgreement(t, fmt.Sprintf("random self %d", i), g1, g1)
	}
}

func TestReferenceQuotientMatchesEngineQuotient(t *testing.T) {
	for _, src := range []string{
		"exit >> (exit >> a1; exit)",
		"i; a1; exit [] i; b1; exit",
		"a1; exit ||| b2; exit",
		"hide a1 in (a1; b2; a1; exit)",
	} {
		g := graphOf(t, src)
		qe := QuotientWeak(g)
		qr := RefQuotientWeak(g)
		if qe.NumStates() != qr.NumStates() {
			t.Errorf("%q: quotient states engine=%d reference=%d", src, qe.NumStates(), qr.NumStates())
		}
		if qe.NumTransitions() != qr.NumTransitions() {
			t.Errorf("%q: quotient transitions engine=%d reference=%d", src, qe.NumTransitions(), qr.NumTransitions())
		}
		if !RefWeakBisimilar(qe, qr) {
			t.Errorf("%q: engine and reference quotients not weakly bisimilar", src)
		}
	}
}
