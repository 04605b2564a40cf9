package trust

import (
	"fmt"
	"math"
	"sort"

	"gridvo/internal/matrix"
	"gridvo/internal/xrand"
)

// edge is one stored adjacency entry: node to receives weight w.
type edge struct {
	to int
	w  float64
}

// Graph is a weighted directed trust graph over n GSPs, identified by dense
// indices 0..n-1. Weights are non-negative; a zero weight is "no edge"
// (complete distrust). Edges are stored sparsely as per-row adjacency lists
// sorted by target index, so memory and full-graph traversals are O(n+nnz)
// rather than O(n²). Graph is not safe for concurrent mutation.
type Graph struct {
	n      int
	adj    [][]edge // adj[i] sorted ascending by to; only positive weights stored
	nnz    int      // total stored edges
	labels []string // optional display names, len n when present
}

// NewGraph returns an edgeless trust graph over n GSPs. It panics if n < 0.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("trust: NewGraph with negative n")
	}
	return &Graph{n: n, adj: make([][]edge, n)}
}

// N returns the number of GSPs in the graph.
func (g *Graph) N() int { return g.n }

// checkNode panics if i is outside [0, n).
func (g *Graph) checkNode(i int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("trust: node %d out of range [0,%d)", i, g.n))
	}
}

// findEdge returns the position of target j in row i's adjacency and
// whether it is present; when absent, the position is the insertion point.
func (g *Graph) findEdge(i, j int) (int, bool) {
	row := g.adj[i]
	k := sort.Search(len(row), func(p int) bool { return row[p].to >= j })
	return k, k < len(row) && row[k].to == j
}

// SetTrust sets the direct trust u_ij that GSP i assigns to GSP j. Trust is
// asymmetric; setting (i,j) says nothing about (j,i). Self-trust (i == i)
// is allowed but conventionally zero. Setting a zero weight removes the
// edge. It panics on a negative or non-finite weight, which has no meaning
// in the model (and, for NaN, would poison the row normalization of eq. 1).
func (g *Graph) SetTrust(i, j int, u float64) {
	if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
		panic(fmt.Sprintf("trust: invalid trust weight %v", u))
	}
	g.checkNode(i)
	g.checkNode(j)
	row := g.adj[i]
	// Fast path: generators emit edges in ascending target order, so the
	// common insertion lands past the current row tail.
	if u > 0 && (len(row) == 0 || row[len(row)-1].to < j) {
		g.adj[i] = append(row, edge{to: j, w: u})
		g.nnz++
		return
	}
	k, ok := g.findEdge(i, j)
	switch {
	case ok && u > 0:
		row[k].w = u
	case ok: // u == 0: delete
		g.adj[i] = append(row[:k], row[k+1:]...)
		g.nnz--
	case u > 0:
		row = append(row, edge{})
		copy(row[k+1:], row[k:])
		row[k] = edge{to: j, w: u}
		g.adj[i] = row
		g.nnz++
	}
}

// Trust returns the direct trust u_ij (0 when there is no edge).
func (g *Graph) Trust(i, j int) float64 {
	g.checkNode(i)
	g.checkNode(j)
	if k, ok := g.findEdge(i, j); ok {
		return g.adj[i][k].w
	}
	return 0
}

// Neighbors returns N_i = {j : (i,j) ∈ E}, the GSPs that i has direct trust
// edges to, in ascending index order.
func (g *Graph) Neighbors(i int) []int {
	g.checkNode(i)
	row := g.adj[i]
	if len(row) == 0 {
		return nil
	}
	out := make([]int, len(row))
	for k, e := range row {
		out[k] = e.to
	}
	return out
}

// VisitNeighbors calls fn for each outgoing edge (j, u_ij) of GSP i in
// ascending target order, without allocating. It is the traversal primitive
// large-graph consumers should prefer over Neighbors/Trust loops.
func (g *Graph) VisitNeighbors(i int, fn func(j int, w float64)) {
	g.checkNode(i)
	for _, e := range g.adj[i] {
		fn(e.to, e.w)
	}
}

// Equal reports whether g and o have the same size and the same edges with
// equal weights, without allocating. Labels are ignored.
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n || g.nnz != o.nnz {
		return false
	}
	for i, row := range g.adj {
		orow := o.adj[i]
		if len(row) != len(orow) {
			return false
		}
		for k := range row {
			if row[k] != orow[k] {
				return false
			}
		}
	}
	return true
}

// NumEdges returns the number of positive-weight edges.
func (g *Graph) NumEdges() int { return g.nnz }

// SetLabels attaches display names to the GSPs. It panics unless exactly n
// labels are provided.
func (g *Graph) SetLabels(labels []string) {
	if len(labels) != g.n {
		panic(fmt.Sprintf("trust: %d labels for %d nodes", len(labels), g.n))
	}
	g.labels = append([]string(nil), labels...)
}

// Label returns the display name of GSP i (falling back to "G<i>").
func (g *Graph) Label(i int) string {
	if g.labels != nil {
		return g.labels[i]
	}
	return fmt.Sprintf("G%d", i)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, adj: make([][]edge, g.n), nnz: g.nnz}
	for i, row := range g.adj {
		if len(row) > 0 {
			c.adj[i] = append([]edge(nil), row...)
		}
	}
	if g.labels != nil {
		c.labels = append([]string(nil), g.labels...)
	}
	return c
}

// Grow extends the graph to n nodes, preserving all existing edges and
// labels (new nodes get default labels). It panics if n is smaller than the
// current size.
func (g *Graph) Grow(n int) {
	if n < g.n {
		panic(fmt.Sprintf("trust: Grow(%d) below current size %d", n, g.n))
	}
	if n == g.n {
		return
	}
	adj := make([][]edge, n)
	copy(adj, g.adj)
	g.adj = adj
	if g.labels != nil {
		for i := g.n; i < n; i++ {
			g.labels = append(g.labels, fmt.Sprintf("G%d", i))
		}
	}
	g.n = n
}

// ClearOutgoing removes every outgoing trust edge of GSP i, leaving the
// row dangling (the Σ_k u_ik = 0 case of eq. 1, which Normalized patches
// per NormalizeOptions). The chaos harness uses it to inject degenerate
// trust inputs. It panics if i is out of range.
func (g *Graph) ClearOutgoing(i int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("trust: ClearOutgoing(%d) out of range [0,%d)", i, g.n))
	}
	g.nnz -= len(g.adj[i])
	g.adj[i] = nil
}

// NormalizeOptions control how eq. (1) handles GSPs with no outgoing trust
// (Σ_k u_ik = 0), for which the normalized row is undefined.
type NormalizeOptions struct {
	// DanglingUniform, when true (the default used by the mechanism),
	// replaces an all-zero row with the uniform distribution over all
	// members, the standard stochastic-matrix completion. When false the
	// row stays zero and the matrix is substochastic; the reputation power
	// method compensates by renormalizing its iterate.
	DanglingUniform bool
}

// MaxEntries bounds the entries a normalized trust matrix may store, and
// with it the node count a decoded graph or delta batch may declare. The
// uniform completion of eq. 1 stores n entries for every dangling row, so
// a small request naming many edgeless nodes would otherwise ask for n²
// entries. 2²⁶ entries are about 0.8 GB of CSR at 12 bytes each, which
// still admits a million-node graph of mean degree 20.
const MaxEntries = 1 << 26

// NormalizedEntries returns how many entries Normalized would store: the
// edges plus, when uniform, n for every dangling row. It runs in O(n),
// allocates nothing, and saturates at math.MaxInt instead of overflowing.
func (g *Graph) NormalizedEntries(uniform bool) int {
	if !uniform {
		return g.nnz
	}
	dangling := 0
	for _, row := range g.adj {
		if len(row) == 0 {
			dangling++
		}
	}
	if dangling > 0 && g.n > (math.MaxInt-g.nnz)/dangling {
		return math.MaxInt
	}
	return g.nnz + dangling*g.n
}

// CheckEntries returns the error a request gets when the normalized trust
// matrix of n nodes would store entries > MaxEntries, and nil otherwise.
// Every path that builds the matrix from untrusted input calls it before
// allocating.
func CheckEntries(n, entries int) error {
	if entries > MaxEntries {
		return fmt.Errorf("reputation: the normalized trust matrix of %d nodes needs %d entries, above the limit %d", n, entries, MaxEntries)
	}
	return nil
}

// Normalized returns the matrix A of normalized trust values a_ij (eq. 1)
// as a CSR, and the GSPs that had no outgoing trust at all and were
// patched per opts. Every call builds a fresh matrix that the caller owns
// and that shares no memory with the graph; it holds NormalizedEntries
// entries, which callers facing untrusted input check against MaxEntries
// first. It is the reference the Store's patched matrix is tested
// against bit for bit.
//
// The build is one pass over the adjacency, one normalizeRow call per
// row. The adjacency already holds strictly ascending in-range targets,
// so the result skips NewCSRRaw's O(nnz) validation pass.
func (g *Graph) Normalized(opts NormalizeOptions) (*matrix.CSR, []int) {
	n := g.n
	nnz := g.NormalizedEntries(opts.DanglingUniform)
	rowPtr := make([]int, n+1)
	colIdx := make([]int32, nnz)
	val := make([]float64, nnz)
	dangling := g.normalizeInto(rowPtr, colIdx, val, opts.DanglingUniform, nil)
	return matrix.NewCSRUnchecked(n, n, rowPtr, colIdx, val), dangling
}

// normalizeInto writes the eq. 1 matrix into rowPtr (length n+1) and
// colIdx and val (length NormalizedEntries(uniform) each), and returns
// dangling with the dangling rows appended. A dangling row becomes an
// explicit row of 1/n entries when uniform, and stays empty otherwise.
func (g *Graph) normalizeInto(rowPtr []int, colIdx []int32, val []float64, uniform bool, dangling []int) []int {
	rowPtr[0] = 0
	p := 0
	for i, row := range g.adj {
		k := len(row)
		if k == 0 {
			dangling = append(dangling, i)
			if uniform {
				k = g.n
			}
		}
		normalizeRow(row, colIdx[p:p+k], val[p:p+k])
		p += k
		rowPtr[i+1] = p
	}
	return dangling
}

// rowEntries returns how many entries row stores in the eq. 1 matrix of an
// n-node graph with the uniform dangling completion.
func rowEntries(row []edge, n int) int {
	if len(row) == 0 {
		return n
	}
	return len(row)
}

// normalizeRow writes one row of eq. 1 into cols and vals, with the
// arithmetic of matrix.CSR.NormalizeRows: the weights are copied out while
// the row sum accumulates in ascending column order, then each is divided
// by that sum (never multiplied by a reciprocal, which overflows for
// subnormal sums). An empty row is dangling: it fills cols and vals, of
// length n or 0, with the uniform completion 1/n over every column.
func normalizeRow(row []edge, cols []int32, vals []float64) {
	if len(row) == 0 {
		if len(cols) == 0 {
			return
		}
		u := 1 / float64(len(cols))
		for j := range cols {
			cols[j] = int32(j)
			vals[j] = u
		}
		return
	}
	// Stored weights are positive, so s > 0.
	s := 0.0
	for k, e := range row {
		s += e.w
		cols[k] = int32(e.to)
		vals[k] = e.w
	}
	for k := range vals {
		vals[k] /= s
	}
}

// Subgraph returns the trust graph induced by keep: node k of the result is
// keep[k] of the original, with all edges among kept members preserved and
// every edge touching an evicted member dropped — exactly the graph update
// TVOF performs when removing a GSP ("removing not only G, but also all
// edges with direct trust to G"). It panics if keep contains duplicates or
// out-of-range indices.
func (g *Graph) Subgraph(keep []int) *Graph {
	pos := make([]int, g.n)
	for i := range pos {
		pos[i] = -1
	}
	for k, orig := range keep {
		if orig < 0 || orig >= g.n {
			panic(fmt.Sprintf("trust: Subgraph index %d out of range [0,%d)", orig, g.n))
		}
		if pos[orig] >= 0 {
			panic(fmt.Sprintf("trust: Subgraph duplicate index %d", orig))
		}
		pos[orig] = k
	}
	sub := NewGraph(len(keep))
	for k, orig := range keep {
		var row []edge
		for _, e := range g.adj[orig] {
			if nj := pos[e.to]; nj >= 0 {
				row = append(row, edge{to: nj, w: e.w})
			}
		}
		// keep may reorder nodes; restore the ascending-target invariant.
		sort.Slice(row, func(a, b int) bool { return row[a].to < row[b].to })
		sub.adj[k] = row
		sub.nnz += len(row)
	}
	if g.labels != nil {
		sub.labels = make([]string, len(keep))
		for k, orig := range keep {
			sub.labels[k] = g.labels[orig]
		}
	}
	return sub
}

// Without returns the subgraph with node i removed, plus the mapping from
// new indices to the original ones. It panics if i is out of range.
func (g *Graph) Without(i int) (*Graph, []int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("trust: Without(%d) out of range [0,%d)", i, g.n))
	}
	keep := make([]int, 0, g.n-1)
	for j := 0; j < g.n; j++ {
		if j != i {
			keep = append(keep, j)
		}
	}
	return g.Subgraph(keep), keep
}

// Edges returns all positive-weight edges sorted by (from, to); useful for
// serialization and deterministic iteration.
type Edge struct {
	From, To int
	Weight   float64
}

// Edges returns the edge list in (from, to) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.nnz)
	for i, row := range g.adj {
		for _, e := range row {
			out = append(out, Edge{From: i, To: e.to, Weight: e.w})
		}
	}
	return out
}

// ErdosRenyi generates a random trust graph with m GSPs where each ordered
// pair (i,j), i != j, receives an edge independently with probability p;
// edge weights are uniform in (0, 1]. This is the G(m, p) model the paper
// uses with m = 16 and p = 0.1 (Section IV-A). The draw sequence visits
// every ordered pair, so generation is O(m²); use SparseErdosRenyi for
// large sparse graphs.
func ErdosRenyi(rng *xrand.RNG, m int, p float64) *Graph {
	if m < 0 {
		panic("trust: ErdosRenyi with negative m")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("trust: ErdosRenyi with p=%v outside [0,1]", p))
	}
	g := NewGraph(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			if rng.Bool(p) {
				// (0,1]: avoid a zero weight, which would mean "no edge".
				g.SetTrust(i, j, 1-rng.Float64())
			}
		}
	}
	return g
}

// SparseErdosRenyi generates G(m, p) with p = meanDegree/(m-1) in O(m+nnz)
// time and memory via geometric gap sampling: instead of flipping a coin
// per ordered pair, it draws the gap to the next present edge directly from
// the geometric distribution (skip = ⌊log(1−U)/log(1−p)⌋). Edge weights are
// uniform in (0, 1] as in ErdosRenyi. The draw sequence differs from
// ErdosRenyi's, so the two generators produce different graphs for the same
// stream — callers choose one per experiment, not interchangeably.
func SparseErdosRenyi(rng *xrand.RNG, m int, meanDegree float64) *Graph {
	if m < 0 {
		panic("trust: SparseErdosRenyi with negative m")
	}
	if meanDegree < 0 {
		panic(fmt.Sprintf("trust: SparseErdosRenyi with negative mean degree %v", meanDegree))
	}
	g := NewGraph(m)
	if m < 2 || meanDegree == 0 {
		return g
	}
	p := meanDegree / float64(m-1)
	if p >= 1 {
		// Complete graph: every ordered pair gets an edge.
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if i != j {
					g.SetTrust(i, j, 1-rng.Float64())
				}
			}
		}
		return g
	}
	// Ordered pairs (i,j), i≠j, are enumerated as positions 0..m(m-1)-1:
	// position q maps to i = q/(m-1) and the q%(m-1)-th non-i column.
	total := uint64(m) * uint64(m-1)
	logq := math.Log1p(-p)
	var pos uint64
	for pos < total {
		u := rng.Float64()
		// skip ~ Geometric(p): number of absent pairs before the next edge.
		skip := math.Floor(math.Log1p(-u) / logq)
		if skip >= float64(total-pos) {
			break
		}
		pos += uint64(skip)
		i := int(pos / uint64(m-1))
		j := int(pos % uint64(m-1))
		if j >= i {
			j++
		}
		g.SetTrust(i, j, 1-rng.Float64())
		pos++
	}
	return g
}

// EnsureEveryNodeTrusted adds, for any node with no incoming trust, a
// single random incoming edge. Experiments that require every GSP to be
// evaluable (so the reputation vector has no structurally forced zeros) use
// this as a post-processing step; it is NOT part of the paper's setup and
// is off by default in the harness.
func EnsureEveryNodeTrusted(rng *xrand.RNG, g *Graph) {
	if g.n < 2 {
		return
	}
	// In-degrees are precomputed in one O(n+nnz) pass. Edges added below
	// only ever point at nodes already found untrusted (processed in
	// ascending order with a fresh positive in-degree), so the precomputed
	// counts remain valid for every later node — the node-by-node draw
	// sequence is identical to probing each node's in-edges in turn.
	indeg := make([]int, g.n)
	for _, row := range g.adj {
		for _, e := range row {
			indeg[e.to]++
		}
	}
	for j := 0; j < g.n; j++ {
		if indeg[j] > 0 {
			continue
		}
		i := rng.IntN(g.n - 1)
		if i >= j {
			i++
		}
		g.SetTrust(i, j, 1-rng.Float64())
	}
}

// Density returns the fraction of possible directed edges present.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return float64(g.nnz) / (float64(g.n) * float64(g.n-1))
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("trust.Graph{n=%d, edges=%d}", g.n, g.nnz)
}
