package trust

import (
	"math"
	"testing"
)

func TestHistoryEmptyWeightZero(t *testing.T) {
	h := NewHistory(3)
	if h.Weight(0, 1) != 0 {
		t.Fatal("no interactions must mean zero trust")
	}
}

func TestHistoryRecordWeights(t *testing.T) {
	h := NewHistory(3)
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
	h := NewHistory(2)
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
	h := NewHistory(2)
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
	reliable := NewHistory(2)
	flaky := NewHistory(2)
	for i := 0; i < 10; i++ {
		_ = reliable.Record(0, 1, true)
		_ = flaky.Record(0, 1, i%2 == 0) // 50% delivery
	}
	if reliable.Weight(0, 1) <= flaky.Weight(0, 1) {
		t.Fatal("reliable provider not trusted more than flaky one")
	}
}

func TestHistoryWeightGrowsWithEvidence(t *testing.T) {
	few := NewHistory(2)
	many := NewHistory(2)
	_ = few.Record(0, 1, true)
	for i := 0; i < 8; i++ {
		_ = many.Record(0, 1, true)
	}
	if many.Weight(0, 1) <= few.Weight(0, 1) {
		t.Fatal("more successful evidence should increase trust")
	}
}

func TestHistoryAllFailuresZeroWeight(t *testing.T) {
	h := NewHistory(2)
	for i := 0; i < 5; i++ {
		_ = h.Record(0, 1, false)
	}
	if h.Weight(0, 1) != 0 {
		t.Fatalf("all-failure weight = %v, want 0", h.Weight(0, 1))
	}
}

func TestHistoryGraph(t *testing.T) {
	h := NewHistory(3)
	_ = h.Record(0, 1, true)
	_ = h.Record(2, 0, false)
	g := h.Graph()
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
	h := NewHistory(3)
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
	if err := NewHistory(2).ApplyTo(NewGraph(3)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestNewHistoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistory(-1) did not panic")
		}
	}()
	NewHistory(-1)
}
