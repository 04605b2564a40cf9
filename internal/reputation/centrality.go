package reputation

import (
	"fmt"

	"gridvo/internal/trust"
)

// This file implements the graph-centrality reputation baselines surveyed
// in the paper's related work (Freeman's degree/closeness/betweenness
// centralities and the damped PageRank eigenvector variant). They
// plug into the mechanism's eviction rule for ablation benchmarks: replace
// "evict the GSP with the lowest power-method reputation" by "lowest
// centrality according to X" and compare outcomes.

// Centrality identifies one of the implemented node-scoring functions.
type Centrality int

const (
	// CentralityPower is the paper's measure: the power-method left
	// principal eigenvector of the normalized trust matrix.
	CentralityPower Centrality = iota
	// CentralityInDegree scores each GSP by the total trust weight it
	// receives (weighted in-degree).
	CentralityInDegree
	// CentralityOutDegree scores each GSP by the total trust weight it
	// emits. Not a reputation per se, but a useful control.
	CentralityOutDegree
	// CentralityCloseness is Freeman closeness on the reversed trust
	// graph: GSPs that are easily reached *by* trust are central.
	CentralityCloseness
	// CentralityBetweenness is Brandes betweenness on the trust digraph.
	CentralityBetweenness
	// CentralityPageRank is the damped random-surfer variant (d = 0.15
	// teleport), robust on reducible graphs.
	CentralityPageRank
)

// String returns the measure name for experiment metadata.
func (c Centrality) String() string {
	switch c {
	case CentralityPower:
		return "power"
	case CentralityInDegree:
		return "in-degree"
	case CentralityOutDegree:
		return "out-degree"
	case CentralityCloseness:
		return "closeness"
	case CentralityBetweenness:
		return "betweenness"
	case CentralityPageRank:
		return "pagerank"
	default:
		return fmt.Sprintf("Centrality(%d)", int(c))
	}
}

// Scores computes the requested centrality for every GSP in g. All
// measures return an L1-normalized non-negative vector so they are
// interchangeable inside the mechanism's eviction rule.
func Scores(g *trust.Graph, c Centrality) ([]float64, error) {
	if g.N() == 0 {
		return nil, ErrEmptyGraph
	}
	switch c {
	case CentralityPower:
		x, _, err := Global(g, DefaultOptions())
		return x, err
	case CentralityInDegree:
		return normalizeScores(weightedDegree(g, true)), nil
	case CentralityOutDegree:
		return normalizeScores(weightedDegree(g, false)), nil
	case CentralityCloseness:
		return normalizeScores(closeness(g)), nil
	case CentralityBetweenness:
		return normalizeScores(betweenness(g)), nil
	case CentralityPageRank:
		opts := DefaultOptions()
		opts.Damping = 0.15
		x, _, err := Global(g, opts)
		return x, err
	default:
		return nil, fmt.Errorf("reputation: unknown centrality %d", int(c))
	}
}

func normalizeScores(x []float64) []float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	if s == 0 {
		// All-zero scores (e.g. edgeless graph): fall back to uniform so
		// downstream averaging still behaves.
		u := 1 / float64(len(x))
		for i := range x {
			x[i] = u
		}
		return x
	}
	for i := range x {
		x[i] /= s
	}
	return x
}

func weightedDegree(g *trust.Graph, incoming bool) []float64 {
	n := g.N()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		g.VisitNeighbors(i, func(j int, w float64) {
			if incoming {
				out[j] += w
			} else {
				out[i] += w
			}
		})
	}
	return out
}

// adjacency materializes the unweighted out-neighbour lists once so the
// BFS-based centralities run in O(n+nnz) per source instead of probing
// every (u,v) pair.
func adjacency(g *trust.Graph) [][]int {
	n := g.N()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		g.VisitNeighbors(i, func(j int, _ float64) {
			adj[i] = append(adj[i], j)
		})
	}
	return adj
}

// closeness computes, for each node v, 1/Σ_u dist(u→v) over nodes u that
// can reach v along trust edges (hops, unweighted), multiplied by the
// fraction of nodes that can reach it (the Wasserman–Faust correction for
// disconnected graphs). Nodes nobody can reach score 0.
func closeness(g *trust.Graph) []float64 {
	n := g.N()
	out := make([]float64, n)
	if n < 2 {
		return out
	}
	// BFS from each source along forward edges gives dist(source→·); we need
	// distances *into* v, so accumulate per target.
	adj := adjacency(g)
	distSum := make([]float64, n)
	reachCnt := make([]int, n)
	queue := make([]int, 0, n)
	dist := make([]int, n)
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for v := 0; v < n; v++ {
			if v != src && dist[v] > 0 {
				distSum[v] += float64(dist[v])
				reachCnt[v]++
			}
		}
	}
	for v := 0; v < n; v++ {
		if reachCnt[v] == 0 {
			continue
		}
		frac := float64(reachCnt[v]) / float64(n-1)
		out[v] = frac * float64(reachCnt[v]) / distSum[v]
	}
	return out
}

// betweenness is Brandes' algorithm on the unweighted trust digraph.
func betweenness(g *trust.Graph) []float64 {
	n := g.N()
	bc := make([]float64, n)
	if n < 3 {
		return bc
	}
	adj := adjacency(g)
	for s := 0; s < n; s++ {
		// Single-source shortest paths (BFS).
		stack := make([]int, 0, n)
		preds := make([][]int, n)
		sigma := make([]float64, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		sigma[s] = 1
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		// Accumulation.
		delta := make([]float64, n)
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	return bc
}
