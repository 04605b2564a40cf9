package trust

import (
	"math"
	"testing"
)

func TestHistoryEmptyWeightZero(t *testing.T) {
	h := NewHistory(3, 1)
	if h.Weight(0, 1) != 0 {
		t.Fatal("no interactions must mean zero trust")
	}
}

func TestHistoryRecordWeights(t *testing.T) {
	h := NewHistory(3, 1)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(h.Record(0, 1, true))
	must(h.Record(0, 1, true))
	must(h.Record(0, 1, false))
	// Two successes in three observations: (2/3)·(1 − 0.5³).
	if got, want := h.Weight(0, 1), 2.0/3*(1-0.125); math.Abs(got-want) > 1e-15 {
		t.Fatalf("weight = %v, want %v", got, want)
	}
	// Direction matters.
	if h.Weight(1, 0) != 0 {
		t.Fatal("reverse direction contaminated")
	}
}

func TestHistoryRecordErrors(t *testing.T) {
	h := NewHistory(2, 1)
	if err := h.Record(0, 0, true); err == nil {
		t.Fatal("self-interaction accepted")
	}
	if err := h.Record(0, 5, true); err == nil {
		t.Fatal("out-of-range provider accepted")
	}
	if err := h.Record(-1, 0, true); err == nil {
		t.Fatal("out-of-range requester accepted")
	}
}

func TestHistoryWeightFormula(t *testing.T) {
	h := NewHistory(2, 1)
	// 1 success: rate 1.0, confidence 1-0.5 = 0.5 → weight 0.5.
	if err := h.Record(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if got := h.Weight(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("weight after 1 success = %v, want 0.5", got)
	}
	// 3 more successes: rate 1.0, confidence 1-0.5^4 = 0.9375.
	for i := 0; i < 3; i++ {
		if err := h.Record(0, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Weight(0, 1); math.Abs(got-0.9375) > 1e-12 {
		t.Fatalf("weight after 4 successes = %v, want 0.9375", got)
	}
}

func TestHistoryWeightMonotoneInSuccessRate(t *testing.T) {
	reliable := NewHistory(2, 1)
	flaky := NewHistory(2, 1)
	for i := 0; i < 10; i++ {
		_ = reliable.Record(0, 1, true)
		_ = flaky.Record(0, 1, i%2 == 0) // 50% delivery
	}
	if reliable.Weight(0, 1) <= flaky.Weight(0, 1) {
		t.Fatal("reliable provider not trusted more than flaky one")
	}
}

func TestHistoryWeightGrowsWithEvidence(t *testing.T) {
	few := NewHistory(2, 1)
	many := NewHistory(2, 1)
	_ = few.Record(0, 1, true)
	for i := 0; i < 8; i++ {
		_ = many.Record(0, 1, true)
	}
	if many.Weight(0, 1) <= few.Weight(0, 1) {
		t.Fatal("more successful evidence should increase trust")
	}
}

func TestHistoryAllFailuresZeroWeight(t *testing.T) {
	h := NewHistory(2, 1)
	for i := 0; i < 5; i++ {
		_ = h.Record(0, 1, false)
	}
	if h.Weight(0, 1) != 0 {
		t.Fatalf("all-failure weight = %v, want 0", h.Weight(0, 1))
	}
}

func TestHistoryGraph(t *testing.T) {
	h := NewHistory(3, 1)
	_ = h.Record(0, 1, true)
	_ = h.Record(2, 0, false)
	g := NewGraph(3)
	if err := h.ApplyTo(g); err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 {
		t.Fatalf("graph N = %d", g.N())
	}
	if g.Trust(0, 1) <= 0 {
		t.Fatal("successful interaction produced no edge")
	}
	if g.Trust(2, 0) != 0 {
		t.Fatal("failed-only interaction produced an edge")
	}
}

func TestHistoryApplyTo(t *testing.T) {
	g := NewGraph(3)
	g.SetTrust(0, 1, 0.9) // prior, no interactions → untouched
	g.SetTrust(1, 2, 0.9) // will be overwritten by observed failures
	h := NewHistory(3, 1)
	for i := 0; i < 4; i++ {
		_ = h.Record(1, 2, false)
	}
	if err := h.ApplyTo(g); err != nil {
		t.Fatal(err)
	}
	if g.Trust(0, 1) != 0.9 {
		t.Fatal("prior without interactions was modified")
	}
	if g.Trust(1, 2) != 0 {
		t.Fatalf("observed failures should zero the trust, got %v", g.Trust(1, 2))
	}
}

func TestHistoryApplyToSizeMismatch(t *testing.T) {
	if err := NewHistory(2, 1).ApplyTo(NewGraph(3)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestNewHistoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistory(-1) did not panic")
		}
	}()
	NewHistory(-1, 1)
}

func TestDecayHistoryMatchesHistoryWithoutDecay(t *testing.T) {
	// Retention 1 never decays: the same pattern spread over rounds far
	// apart gives bitwise the weight it gives at one round.
	still, spread := NewHistory(3, 1), NewHistory(3, 1)
	for k, ok := range []bool{true, true, false, true} {
		if err := still.Record(0, 1, ok); err != nil {
			t.Fatal(err)
		}
		if err := spread.AdvanceTo(100 * k); err != nil {
			t.Fatal(err)
		}
		if err := spread.Record(0, 1, ok); err != nil {
			t.Fatal(err)
		}
	}
	if err := spread.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	if w, want := spread.Weight(0, 1), still.Weight(0, 1); w != want || want != 0.75*(1-0.0625) {
		t.Fatalf("retention 1 weight %v, undecayed %v", w, want)
	}
}

func TestDecayHistoryEvidenceFades(t *testing.T) {
	h := NewHistory(2, 0.5)
	for i := 0; i < 6; i++ {
		if err := h.Record(0, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	at := func(round int) float64 {
		t.Helper()
		if err := h.AdvanceTo(round); err != nil {
			t.Fatal(err)
		}
		return h.Weight(0, 1)
	}
	fresh, later, muchLater := at(0), at(5), at(50)
	if !(fresh > later && later > muchLater) {
		t.Fatalf("trust not decaying: %v, %v, %v", fresh, later, muchLater)
	}
	if muchLater > 1e-9 {
		t.Fatalf("stale trust should vanish, got %v", muchLater)
	}
}

func TestDecayHistoryRecentEvidenceDominates(t *testing.T) {
	// A provider that failed long ago but delivers now should be more
	// trusted than one with the mirrored pattern.
	reformed, lapsed := NewHistory(2, 0.7), NewHistory(2, 0.7)
	for _, round := range []int{0, 10} {
		_ = reformed.AdvanceTo(round)
		_ = lapsed.AdvanceTo(round)
		for i := 0; i < 5; i++ {
			_ = reformed.Record(0, 1, round > 0)
			_ = lapsed.Record(0, 1, round == 0)
		}
	}
	if wr, wl := reformed.Weight(0, 1), lapsed.Weight(0, 1); wr <= wl {
		t.Fatalf("recent behaviour should dominate: reformed %v <= lapsed %v", wr, wl)
	}
}

func TestDecayHistoryErrors(t *testing.T) {
	h := NewHistory(2, 0.9)
	if err := h.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if err := h.AdvanceTo(3); err == nil {
		t.Fatal("time going backwards accepted")
	}
	if err := h.Record(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := h.AdvanceTo(5); err != nil {
		t.Fatalf("staying at the current round rejected: %v", err)
	}
}

func TestDecayHistoryApplyToAt(t *testing.T) {
	h := NewHistory(3, 0.5)
	_ = h.Record(0, 1, true)
	_ = h.Record(2, 0, true)
	g := NewGraph(3)
	g.SetTrust(1, 2, 0.7) // an unobserved pair keeps its prior weight
	if err := h.ApplyTo(g); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	// Far in the future every observed edge has decayed to ~0 and is cleared.
	if err := h.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if err := h.ApplyTo(g); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.Trust(1, 2) != 0.7 {
		t.Fatalf("stale edges survived: %d edges", g.NumEdges())
	}
}

func TestDecayHistoryConstructorValidation(t *testing.T) {
	for i, f := range []func(){
		func() { NewHistory(-1, 0.5) },
		func() { NewHistory(2, 1.5) },
		func() { NewHistory(2, -0.5) },
		func() { NewHistory(2, 0) },
		func() { NewHistory(2, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
