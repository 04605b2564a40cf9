package coalition

import (
	"fmt"
	"math/bits"
	"sort"
)

// MaxPlayers bounds game size (coalitions are memoized as uint64 masks).
const MaxPlayers = 63

// ValueFunc is a characteristic function v: it returns the value of the
// coalition given by the sorted member list. Implementations must be
// deterministic; v(∅) must be 0.
type ValueFunc func(members []int) float64

// Game is a transferable-utility coalitional game (G, v) with memoized
// characteristic-function evaluations (the VO formation game's v requires
// an NP-hard IP solve per coalition, so caching matters).
type Game struct {
	n     int
	value ValueFunc
	cache map[uint64]float64
}

// NewGame creates a game with n players and characteristic function v.
// It panics if n is negative or exceeds MaxPlayers.
func NewGame(n int, v ValueFunc) *Game {
	if n < 0 || n > MaxPlayers {
		panic(fmt.Sprintf("coalition: NewGame with n=%d outside [0,%d]", n, MaxPlayers))
	}
	if v == nil {
		panic("coalition: NewGame with nil value function")
	}
	return &Game{n: n, value: v, cache: map[uint64]float64{}}
}

// Mask converts a member list to its bitmask, validating the indices.
func (g *Game) Mask(members []int) uint64 {
	var m uint64
	for _, i := range members {
		if i < 0 || i >= g.n {
			panic(fmt.Sprintf("coalition: player %d out of range [0,%d)", i, g.n))
		}
		if m&(1<<uint(i)) != 0 {
			panic(fmt.Sprintf("coalition: duplicate player %d", i))
		}
		m |= 1 << uint(i)
	}
	return m
}

// Members converts a bitmask back to a sorted member list. Hot in cache
// keying and subset enumeration, so it preallocates exactly
// bits.OnesCount64 entries and jumps bit to bit with TrailingZeros64
// instead of walking all 64 positions.
func Members(mask uint64) []int {
	if mask == 0 {
		return nil
	}
	out := make([]int, 0, bits.OnesCount64(mask))
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		out = append(out, i)
		mask &^= 1 << uint(i)
	}
	return out
}

// Value returns v(C), memoized. The empty coalition is 0 by definition.
func (g *Game) Value(members []int) float64 {
	mask := g.Mask(members)
	if mask == 0 {
		return 0
	}
	if v, ok := g.cache[mask]; ok {
		return v
	}
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	v := g.value(sorted)
	g.cache[mask] = v
	return v
}

// CacheSize reports how many coalitions have been evaluated (for solver
// cost accounting in experiments).
func (g *Game) CacheSize() int { return len(g.cache) }

// EqualShares divides v(C) equally among the members of C (eq. 18):
// ψ_G(C) = (P − C(T,C))/|C| for every G ∈ C. It returns the per-member
// share, or 0 for the empty coalition.
func (g *Game) EqualShares(members []int) float64 {
	if len(members) == 0 {
		return 0
	}
	return g.Value(members) / float64(len(members))
}

// InCore reports whether ψ lies in the core: for every coalition S,
// Σ_{i∈S} ψ_i ≥ v(S) − tol. Exhaustive over 2^n subsets; n ≤ ~24 in
// practice. The second return names a blocking coalition when not in core.
func (g *Game) InCore(psi []float64, tol float64) (bool, []int) {
	if len(psi) != g.n {
		return false, nil
	}
	total := uint64(1) << uint(g.n)
	for mask := uint64(1); mask < total; mask++ {
		sum := 0.0
		for i := 0; i < g.n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sum += psi[i]
			}
		}
		members := Members(mask)
		if sum < g.Value(members)-tol {
			return false, members
		}
	}
	return true, nil
}

// Shapley computes the exact Shapley value by subset enumeration:
// φ_i = Σ_{S ⊆ N\{i}} |S|!(n−|S|−1)!/n! · [v(S∪{i}) − v(S)].
// Exponential in n — the very intractability that motivates the paper's
// equal-share rule — so it is capped at 20 players.
func (g *Game) Shapley() []float64 {
	if g.n > 20 {
		panic("coalition: exact Shapley limited to 20 players")
	}
	phi := make([]float64, g.n)
	if g.n == 0 {
		return phi
	}
	// Precompute |S|!(n-|S|-1)!/n! by subset size.
	fact := make([]float64, g.n+1)
	fact[0] = 1
	for i := 1; i <= g.n; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	weight := make([]float64, g.n)
	for s := 0; s < g.n; s++ {
		weight[s] = fact[s] * fact[g.n-s-1] / fact[g.n]
	}
	total := uint64(1) << uint(g.n)
	for mask := uint64(0); mask < total; mask++ {
		members := Members(mask)
		vS := g.Value(members)
		size := len(members)
		for i := 0; i < g.n; i++ {
			bit := uint64(1) << uint(i)
			if mask&bit != 0 {
				continue
			}
			withI := Members(mask | bit)
			phi[i] += weight[size] * (g.Value(withI) - vS)
		}
	}
	return phi
}
