package trust

import (
	"fmt"
	"math"
)

// History records direct interactions between GSPs and derives trust
// weights from them. The paper defines direct trust as "how likely is a GSP
// to provide the requested resources to another GSP ... based on their past
// interactions"; History makes that operational: the weight u_ij is the
// smoothed empirical delivery rate of j toward i, scaled by the observation
// count so that a provider with many successful deliveries is trusted more
// than one with a single lucky interaction.
//
// The weight formula is
//
//	u_ij = (s_ij / (s_ij + f_ij)) · (1 − decay^(s_ij+f_ij))
//
// where s_ij / f_ij count successful / failed deliveries from j to i and
// decay = DefaultDecay controls how quickly confidence saturates with the
// number of observations. With zero observations u_ij = 0 (complete
// distrust, as the paper specifies for GSPs that never interacted).
//
// Evidence may also fade with time, after the trust model of Azzedin &
// Maheswaran (ICPP 2002) that the paper's related-work section discusses:
// "trust and reputation decay with time". History keeps a round clock
// (AdvanceTo), and every count shrinks by the retention factor per round
// elapsed. Retention 1 is the paper's undecayed accounting: the counts stay
// whole numbers. The paper argues *against* unconditional decay (it
// converges to a state where no new VOs can form), which makes retention
// below 1 the substrate for that comparison rather than part of TVOF.
//
// History keeps O(1) state per ordered pair: the decayed counts plus the
// round they were last decayed to, folding the decay in lazily.
type History struct {
	n         int
	retention float64
	round     int
	success   [][]float64
	failure   [][]float64
	last      [][]int
}

// DefaultDecay is the confidence saturation base of History's weight
// formula. With 0.5, one observation yields 50% of asymptotic confidence,
// four observations ~94%.
const DefaultDecay = 0.5

// minGraphWeight is the threshold below which a decayed edge is treated as
// fully evaporated: exponential decay never reaches exactly zero, but a
// 1e-12 trust weight is indistinguishable from distrust in every consumer.
const minGraphWeight = 1e-12

// NewHistory returns an empty interaction history over n GSPs at round 0.
// retention, the share of evidence kept per round, must lie in (0, 1];
// 1 never decays.
func NewHistory(n int, retention float64) *History {
	if n < 0 {
		panic("trust: NewHistory with negative n")
	}
	if !(retention > 0 && retention <= 1) {
		panic(fmt.Sprintf("trust: retention %v outside (0,1]", retention))
	}
	h := &History{
		n:         n,
		retention: retention,
		success:   make([][]float64, n),
		failure:   make([][]float64, n),
		last:      make([][]int, n),
	}
	for i := 0; i < n; i++ {
		h.success[i] = make([]float64, n)
		h.failure[i] = make([]float64, n)
		h.last[i] = make([]int, n)
	}
	return h
}

// AdvanceTo moves the history's clock to round; later Records, Weights and
// ApplyTos see the evidence decayed to it. Rounds never go back.
func (h *History) AdvanceTo(round int) error {
	if round < h.round {
		return fmt.Errorf("trust: round %d precedes current round %d", round, h.round)
	}
	h.round = round
	return nil
}

// fold decays the pair's counts from the round they were last decayed to
// up to the current round.
func (h *History) fold(requester, provider int) {
	if k := h.round - h.last[requester][provider]; k > 0 {
		f := math.Pow(h.retention, float64(k))
		h.success[requester][provider] *= f
		h.failure[requester][provider] *= f
		h.last[requester][provider] = h.round
	}
}

// Record logs one interaction in which requester asked provider for
// resources and provider either delivered them or not. Self-interactions
// are rejected: a GSP does not rate itself.
func (h *History) Record(requester, provider int, delivered bool) error {
	if requester < 0 || requester >= h.n || provider < 0 || provider >= h.n {
		return fmt.Errorf("trust: interaction (%d,%d) out of range [0,%d)", requester, provider, h.n)
	}
	if requester == provider {
		return fmt.Errorf("trust: self-interaction for GSP %d", requester)
	}
	h.fold(requester, provider)
	if delivered {
		h.success[requester][provider]++
	} else {
		h.failure[requester][provider]++
	}
	return nil
}

// Weight returns the derived direct-trust weight u_{requester,provider} as
// of the current round. Stale evidence means both low confidence and, in
// the limit, zero trust — the decay property the paper critiques.
func (h *History) Weight(requester, provider int) float64 {
	h.fold(requester, provider)
	s := h.success[requester][provider]
	f := h.failure[requester][provider]
	total := s + f
	if total == 0 {
		return 0
	}
	confidence := 1 - math.Pow(DefaultDecay, total)
	return (s / total) * confidence
}

// ApplyTo overwrites the trust weights in g for every pair with at least
// one recorded interaction, leaving other edges untouched; a weight that
// has decayed below minGraphWeight clears the edge. This supports hybrid
// setups where a prior graph (e.g. Erdős–Rényi) is refined by observed
// behaviour over repeated VO formation rounds.
func (h *History) ApplyTo(g *Graph) error {
	if g.N() != h.n {
		return fmt.Errorf("trust: history over %d GSPs applied to graph of %d", h.n, g.N())
	}
	for i := 0; i < h.n; i++ {
		for j := 0; j < h.n; j++ {
			if i == j || h.success[i][j]+h.failure[i][j] == 0 {
				continue
			}
			w := h.Weight(i, j)
			if w <= minGraphWeight {
				w = 0
			}
			g.SetTrust(i, j, w)
		}
	}
	return nil
}
