package trust

import (
	"fmt"
	"math"
)

// DecayHistory is an interaction recorder whose evidence fades with time,
// after the trust model of Azzedin & Maheswaran (ICPP 2002) that the
// paper's related-work section discusses: "trust and reputation decay with
// time". Each observation carries a logical timestamp (a round number);
// its contribution to the trust weight shrinks by a factor Retention per
// round elapsed. The paper itself argues *against* unconditional decay
// (it converges to a state where no new VOs can form), which makes this
// type the substrate for that comparison rather than part of TVOF.
//
// The implementation keeps O(1) state per ordered pair: exponentially
// decayed success/failure counts plus the round they were last touched,
// folding the decay in lazily.
type DecayHistory struct {
	n         int
	retention float64
	succ      [][]float64
	fail      [][]float64
	last      [][]int
}

// DefaultRetention keeps ~90% of the evidence per round.
const DefaultRetention = 0.9

// NewDecayHistory creates a decaying history over n GSPs. retention must
// lie in (0, 1]; zero selects DefaultRetention. retention == 1 reproduces
// the undecayed History counts.
func NewDecayHistory(n int, retention float64) *DecayHistory {
	if n < 0 {
		panic("trust: NewDecayHistory with negative n")
	}
	if retention == 0 {
		retention = DefaultRetention
	}
	if retention <= 0 || retention > 1 {
		panic(fmt.Sprintf("trust: retention %v outside (0,1]", retention))
	}
	h := &DecayHistory{
		n:         n,
		retention: retention,
		succ:      make([][]float64, n),
		fail:      make([][]float64, n),
		last:      make([][]int, n),
	}
	for i := 0; i < n; i++ {
		h.succ[i] = make([]float64, n)
		h.fail[i] = make([]float64, n)
		h.last[i] = make([]int, n)
	}
	return h
}

// decayTo folds the decay from the pair's last-touched round up to round.
func (h *DecayHistory) decayTo(requester, provider, round int) error {
	if requester < 0 || requester >= h.n || provider < 0 || provider >= h.n {
		return fmt.Errorf("trust: pair (%d,%d) out of range [0,%d)", requester, provider, h.n)
	}
	lastRound := h.last[requester][provider]
	if round < lastRound {
		return fmt.Errorf("trust: round %d precedes last observation at %d", round, lastRound)
	}
	if round > lastRound {
		f := math.Pow(h.retention, float64(round-lastRound))
		h.succ[requester][provider] *= f
		h.fail[requester][provider] *= f
		h.last[requester][provider] = round
	}
	return nil
}

// RecordAt logs one interaction at the given round. Rounds for a pair
// must be non-decreasing.
func (h *DecayHistory) RecordAt(requester, provider int, delivered bool, round int) error {
	if requester == provider {
		return fmt.Errorf("trust: self-interaction for GSP %d", requester)
	}
	if err := h.decayTo(requester, provider, round); err != nil {
		return err
	}
	if delivered {
		h.succ[requester][provider]++
	} else {
		h.fail[requester][provider]++
	}
	return nil
}

// WeightAt returns the direct-trust weight of provider toward requester as
// of the given round: the decayed delivery rate scaled by a confidence
// term that saturates with the decayed evidence mass (the same shape as
// History.Weight). Stale evidence means both low confidence and, in the
// limit, zero trust — the decay property the paper critiques.
func (h *DecayHistory) WeightAt(requester, provider, round int) (float64, error) {
	if err := h.decayTo(requester, provider, round); err != nil {
		return 0, err
	}
	s := h.succ[requester][provider]
	f := h.fail[requester][provider]
	total := s + f
	if total <= 0 {
		return 0, nil
	}
	confidence := 1 - math.Pow(DefaultDecay, total)
	return (s / total) * confidence, nil
}

// Observed reports whether any interaction between the pair has ever been
// recorded (regardless of how far it has decayed).
func (h *DecayHistory) Observed(requester, provider int) bool {
	if requester < 0 || requester >= h.n || provider < 0 || provider >= h.n {
		return false
	}
	// Decayed counts stay strictly positive once any interaction was
	// recorded (exponential decay never reaches zero), so the counts
	// themselves are the observation flag. h.last is NOT usable here: it
	// advances on read-only WeightAt queries too.
	return h.succ[requester][provider] > 0 || h.fail[requester][provider] > 0
}

// ApplyToAt overwrites the trust weights in g for every pair with recorded
// interactions using the decayed weight as of round; weights that have
// decayed below minGraphWeight clear the edge. Pairs without observations
// keep their prior weights, mirroring History.ApplyTo.
func (h *DecayHistory) ApplyToAt(g *Graph, round int) error {
	if g.N() != h.n {
		return fmt.Errorf("trust: decay history over %d GSPs applied to graph of %d", h.n, g.N())
	}
	for i := 0; i < h.n; i++ {
		for j := 0; j < h.n; j++ {
			if i == j || !h.Observed(i, j) {
				continue
			}
			w, err := h.WeightAt(i, j, round)
			if err != nil {
				return err
			}
			if w <= minGraphWeight {
				w = 0
			}
			g.SetTrust(i, j, w)
		}
	}
	return nil
}

// minGraphWeight is the threshold below which a decayed edge is treated as
// fully evaporated: exponential decay never reaches exactly zero, but a
// 1e-12 trust weight is indistinguishable from distrust in every consumer.
const minGraphWeight = 1e-12
