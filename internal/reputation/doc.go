// Package reputation computes global reputation scores for GSPs from a
// trust graph, implementing Section II-B and Algorithm 2 of the paper.
//
// The global reputation vector x is the left principal eigenvector of the
// normalized trust matrix A (eq. 6: λx = Aᵀx), found with the power method:
// start from the uniform vector x⁰ᵢ = 1/|C| and iterate x^{q+1} = Aᵀ x^q
// until successive iterates differ by less than ε. Intuitively, a GSP has
// high reputation to the extent that GSPs who themselves have high
// reputation place trust in it — eigenvector centrality on the trust graph.
//
// Besides the paper's power method, the package provides the classic
// centrality measures the related-work section surveys (degree, closeness,
// betweenness and PageRank), which the bench harness uses for
// eviction-rule ablations.
package reputation
