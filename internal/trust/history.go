package trust

import "fmt"

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
type History struct {
	n       int
	success [][]int
	failure [][]int
}

// DefaultDecay is the confidence saturation base of History's weight
// formula and of DecayHistory's. With 0.5, one observation yields 50% of
// asymptotic confidence, four observations ~94%.
const DefaultDecay = 0.5

// NewHistory returns an empty interaction history over n GSPs.
func NewHistory(n int) *History {
	if n < 0 {
		panic("trust: NewHistory with negative n")
	}
	h := &History{n: n, success: make([][]int, n), failure: make([][]int, n)}
	for i := 0; i < n; i++ {
		h.success[i] = make([]int, n)
		h.failure[i] = make([]int, n)
	}
	return h
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
	if delivered {
		h.success[requester][provider]++
	} else {
		h.failure[requester][provider]++
	}
	return nil
}

// Weight returns the derived direct-trust weight u_{requester,provider}.
func (h *History) Weight(requester, provider int) float64 {
	s := float64(h.success[requester][provider])
	f := float64(h.failure[requester][provider])
	total := s + f
	if total == 0 {
		return 0
	}
	confidence := 1 - pow(DefaultDecay, total)
	return (s / total) * confidence
}

// pow computes base^exp for a non-negative integer-valued float exponent
// without importing math for a single call site; exp is small (interaction
// counts), so repeated multiplication is exact enough and fast.
func pow(base, exp float64) float64 {
	result := 1.0
	for i := 0.0; i < exp; i++ {
		result *= base
	}
	return result
}

// Graph materializes the current trust weights as a Graph.
func (h *History) Graph() *Graph {
	g := NewGraph(h.n)
	for i := 0; i < h.n; i++ {
		for j := 0; j < h.n; j++ {
			if i == j {
				continue
			}
			if w := h.Weight(i, j); w > 0 {
				g.SetTrust(i, j, w)
			}
		}
	}
	return g
}

// ApplyTo overwrites the trust weights in g for every pair with at least
// one recorded interaction, leaving other edges untouched. This supports
// hybrid setups where a prior graph (e.g. Erdős–Rényi) is refined by
// observed behaviour over repeated VO formation rounds.
func (h *History) ApplyTo(g *Graph) error {
	if g.N() != h.n {
		return fmt.Errorf("trust: history over %d GSPs applied to graph of %d", h.n, g.N())
	}
	for i := 0; i < h.n; i++ {
		for j := 0; j < h.n; j++ {
			if i == j {
				continue
			}
			if h.success[i][j]+h.failure[i][j] > 0 {
				g.SetTrust(i, j, h.Weight(i, j))
			}
		}
	}
	return nil
}
