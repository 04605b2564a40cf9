package trust

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// graphJSON is the stable on-disk representation: an explicit node count,
// optional labels, and a sparse edge list. Sparse beats a dense matrix for
// the p=0.1 graphs the experiments use and keeps files diff-friendly.
type graphJSON struct {
	N      int        `json:"n"`
	Labels []string   `json:"labels,omitempty"`
	Edges  []edgeJSON `json:"edges"`
}

type edgeJSON struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Weight float64 `json:"weight"`
}

// MarshalJSON encodes the graph in the sparse edge-list format.
func (g *Graph) MarshalJSON() ([]byte, error) {
	edges := g.Edges()
	ej := make([]edgeJSON, len(edges))
	for i, e := range edges {
		ej[i] = edgeJSON{From: e.From, To: e.To, Weight: e.Weight}
	}
	return json.Marshal(graphJSON{N: g.n, Labels: g.labels, Edges: ej})
}

// UnmarshalJSON decodes the sparse edge-list format, validating ranges and
// weights. A node count above MaxEntries is rejected before the graph is
// allocated.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var gj graphJSON
	if err := json.Unmarshal(data, &gj); err != nil {
		return fmt.Errorf("trust: decoding graph: %w", err)
	}
	if gj.N < 0 || gj.N > MaxEntries {
		return fmt.Errorf("trust: node count %d outside [0,%d]", gj.N, MaxEntries)
	}
	if gj.Labels != nil && len(gj.Labels) != gj.N {
		return fmt.Errorf("trust: %d labels for %d nodes", len(gj.Labels), gj.N)
	}
	ng := NewGraph(gj.N)
	for _, e := range gj.Edges {
		if e.From < 0 || e.From >= gj.N || e.To < 0 || e.To >= gj.N {
			return fmt.Errorf("trust: edge (%d,%d) out of range [0,%d)", e.From, e.To, gj.N)
		}
		if !(e.Weight > 0) || math.IsInf(e.Weight, 0) {
			return fmt.Errorf("trust: edge (%d,%d) has invalid weight %v", e.From, e.To, e.Weight)
		}
		ng.SetTrust(e.From, e.To, e.Weight)
	}
	if gj.Labels != nil {
		ng.SetLabels(gj.Labels)
	}
	*g = *ng
	return nil
}

// WriteJSON writes the graph as indented JSON to w.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// ReadJSON parses a graph from r.
func ReadJSON(r io.Reader) (*Graph, error) {
	var g Graph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, err
	}
	return &g, nil
}

// WriteDOT writes the graph in Graphviz DOT format, with edge weights as
// labels, for visual inspection of small trust graphs.
func (g *Graph) WriteDOT(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("digraph trust {\n")
	for i := 0; i < g.n; i++ {
		fmt.Fprintf(&sb, "  %d [label=%q];\n", i, g.Label(i))
	}
	edges := g.Edges()
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		return edges[a].To < edges[b].To
	})
	for _, e := range edges {
		fmt.Fprintf(&sb, "  %d -> %d [label=\"%.3f\"];\n", e.From, e.To, e.Weight)
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
