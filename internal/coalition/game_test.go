package coalition

import (
	"math"
	"testing"

	"gridvo/internal/xrand"
)

// additive returns a game where v(S) = Σ_{i∈S} w_i — the simplest game
// with known Shapley value (φ_i = w_i) and non-empty core.
func additive(w []float64) *Game {
	return NewGame(len(w), func(members []int) float64 {
		s := 0.0
		for _, i := range members {
			s += w[i]
		}
		return s
	})
}

// majority3 is the classic 3-player majority game: v(S)=1 iff |S| >= 2.
// Its core is empty; its Shapley value is (1/3, 1/3, 1/3).
func majority3() *Game {
	return NewGame(3, func(members []int) float64 {
		if len(members) >= 2 {
			return 1
		}
		return 0
	})
}

func TestNewGamePanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewGame(-1, func([]int) float64 { return 0 }) },
		func() { NewGame(64, func([]int) float64 { return 0 }) },
		func() { NewGame(3, nil) },
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

func TestValueAndMemoization(t *testing.T) {
	calls := 0
	g := NewGame(4, func(members []int) float64 {
		calls++
		return float64(len(members))
	})
	if g.Value([]int{0, 2}) != 2 {
		t.Fatal("value wrong")
	}
	if g.Value([]int{2, 0}) != 2 { // order-independent, cached
		t.Fatal("value wrong on reordered members")
	}
	if calls != 1 {
		t.Fatalf("value function called %d times, want 1 (memoized)", calls)
	}
	if g.Value(nil) != 0 {
		t.Fatal("v(∅) != 0")
	}
	if g.CacheSize() != 1 {
		t.Fatalf("cache size = %d", g.CacheSize())
	}
}

func TestMaskValidation(t *testing.T) {
	g := additive([]float64{1, 2})
	for i, members := range [][]int{{5}, {-1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			g.Mask(members)
		}()
	}
}

func TestMembersRoundTrip(t *testing.T) {
	g := additive(make([]float64, 10))
	in := []int{0, 3, 7, 9}
	got := Members(g.Mask(in))
	if len(got) != 4 {
		t.Fatalf("Members = %v", got)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("Members = %v, want %v", got, in)
		}
	}
	if Members(0) != nil {
		t.Fatal("Members(0) != nil")
	}
}

func TestEqualShares(t *testing.T) {
	g := additive([]float64{3, 6, 9})
	if got := g.EqualShares([]int{0, 1}); got != 4.5 {
		t.Fatalf("EqualShares = %v, want 4.5", got)
	}
	if g.EqualShares(nil) != 0 {
		t.Fatal("EqualShares(∅) != 0")
	}
}

func TestInCoreAdditive(t *testing.T) {
	g := additive([]float64{1, 2, 3})
	ok, blocking := g.InCore([]float64{1, 2, 3}, 1e-9)
	if !ok {
		t.Fatalf("additive core check failed; blocking = %v", blocking)
	}
}

func TestInCoreMajorityEmpty(t *testing.T) {
	g := majority3()
	// Any efficient split of 1 is blocked by the two lowest-paid players.
	for _, psi := range [][]float64{
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
		{0.5, 0.5, 0},
		{1, 0, 0},
	} {
		ok, blocking := g.InCore(psi, 1e-9)
		if ok {
			t.Fatalf("majority game payoff %v wrongly in core", psi)
		}
		if len(blocking) == 0 {
			t.Fatal("no blocking coalition reported")
		}
	}
}

func TestInCoreWrongLength(t *testing.T) {
	g := majority3()
	if ok, _ := g.InCore([]float64{1}, 0); ok {
		t.Fatal("wrong-length vector accepted")
	}
}

func TestShapleyAdditive(t *testing.T) {
	w := []float64{1.5, 2.5, 4}
	phi := additive(w).Shapley()
	for i := range w {
		if math.Abs(phi[i]-w[i]) > 1e-9 {
			t.Fatalf("Shapley = %v, want %v", phi, w)
		}
	}
}

func TestShapleyMajority(t *testing.T) {
	phi := majority3().Shapley()
	for i, p := range phi {
		if math.Abs(p-1.0/3) > 1e-9 {
			t.Fatalf("phi[%d] = %v, want 1/3", i, p)
		}
	}
}

func TestShapleyEfficiency(t *testing.T) {
	// Shapley value is efficient: Σφ_i = v(N). Random game.
	rng := xrand.New(1)
	vals := map[uint64]float64{}
	g := NewGame(6, func(members []int) float64 {
		// Deterministic pseudo-random superadditive-ish values derived
		// from the mask.
		var mask uint64
		for _, i := range members {
			mask |= 1 << uint(i)
		}
		if v, ok := vals[mask]; ok {
			return v
		}
		v := float64(len(members)) * rng.Float64() * 10
		vals[mask] = v
		return v
	})
	phi := g.Shapley()
	sum := 0.0
	for _, p := range phi {
		sum += p
	}
	grand := g.Value([]int{0, 1, 2, 3, 4, 5})
	if math.Abs(sum-grand) > 1e-9 {
		t.Fatalf("Σφ = %v, v(N) = %v", sum, grand)
	}
}

func TestShapleyPanicsOnLargeGame(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("large exact Shapley did not panic")
		}
	}()
	additive(make([]float64, 21)).Shapley()
}

func TestEmptyGameShapley(t *testing.T) {
	if got := additive(nil).Shapley(); len(got) != 0 {
		t.Fatalf("empty Shapley = %v", got)
	}
}
