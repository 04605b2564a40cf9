package trust

import (
	"math"
	"testing"
)

func TestDecayHistoryMatchesHistoryWithoutDecay(t *testing.T) {
	// retention = 1 and a fixed round must reproduce History weights.
	plain := NewHistory(3)
	decayed := NewDecayHistory(3, 1)
	pattern := []bool{true, true, false, true}
	for _, ok := range pattern {
		if err := plain.Record(0, 1, ok); err != nil {
			t.Fatal(err)
		}
		if err := decayed.RecordAt(0, 1, ok, 0); err != nil {
			t.Fatal(err)
		}
	}
	w, err := decayed.WeightAt(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-plain.Weight(0, 1)) > 1e-12 {
		t.Fatalf("retention=1 weight %v != undecayed %v", w, plain.Weight(0, 1))
	}
}

func TestDecayHistoryEvidenceFades(t *testing.T) {
	h := NewDecayHistory(2, 0.5)
	for i := 0; i < 6; i++ {
		if err := h.RecordAt(0, 1, true, 0); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := h.WeightAt(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	later, err := h.WeightAt(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	muchLater, err := h.WeightAt(0, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
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
	reformed := NewDecayHistory(2, 0.7)
	lapsed := NewDecayHistory(2, 0.7)
	for i := 0; i < 5; i++ {
		_ = reformed.RecordAt(0, 1, false, 0)
		_ = reformed.RecordAt(0, 1, true, 10)
		_ = lapsed.RecordAt(0, 1, true, 0)
		_ = lapsed.RecordAt(0, 1, false, 10)
	}
	wr, err := reformed.WeightAt(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := lapsed.WeightAt(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if wr <= wl {
		t.Fatalf("recent behaviour should dominate: reformed %v <= lapsed %v", wr, wl)
	}
}

func TestDecayHistoryErrors(t *testing.T) {
	h := NewDecayHistory(2, 0.9)
	if err := h.RecordAt(0, 0, true, 0); err == nil {
		t.Fatal("self-interaction accepted")
	}
	if err := h.RecordAt(0, 5, true, 0); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := h.RecordAt(0, 1, true, 5); err != nil {
		t.Fatal(err)
	}
	if err := h.RecordAt(0, 1, true, 3); err == nil {
		t.Fatal("time going backwards accepted")
	}
	if _, err := h.WeightAt(0, 1, 2); err == nil {
		t.Fatal("stale query accepted")
	}
}

func TestDecayHistoryApplyToAt(t *testing.T) {
	h := NewDecayHistory(3, 0.5)
	_ = h.RecordAt(0, 1, true, 0)
	_ = h.RecordAt(2, 0, true, 0)
	g := NewGraph(3)
	g.SetTrust(1, 2, 0.7) // an unobserved pair keeps its prior weight
	if err := h.ApplyToAt(g, 0); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	// Far in the future every observed edge has decayed to ~0 and is cleared.
	if err := h.ApplyToAt(g, 100); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.Trust(1, 2) != 0.7 {
		t.Fatalf("stale edges survived: %d edges", g.NumEdges())
	}
}

func TestDecayHistoryConstructorValidation(t *testing.T) {
	def, zero := NewDecayHistory(2, DefaultRetention), NewDecayHistory(2, 0)
	_ = def.RecordAt(0, 1, true, 0)
	_ = zero.RecordAt(0, 1, true, 0)
	wd, _ := def.WeightAt(0, 1, 3)
	wz, _ := zero.WeightAt(0, 1, 3)
	if wz != wd {
		t.Fatalf("zero retention decays to %v, the default to %v", wz, wd)
	}
	for i, f := range []func(){
		func() { NewDecayHistory(-1, 0.5) },
		func() { NewDecayHistory(2, 1.5) },
		func() { NewDecayHistory(2, -0.5) },
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
