package trust

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gridvo/internal/xrand"
)

func TestJSONRoundTrip(t *testing.T) {
	g := ErdosRenyi(xrand.New(5), 12, 0.3)
	g.SetLabels([]string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"})
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip shape mismatch: %d/%d vs %d/%d",
			got.N(), got.NumEdges(), g.N(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if got.Trust(e.From, e.To) != e.Weight {
			t.Fatalf("edge (%d,%d) weight %v != %v", e.From, e.To, got.Trust(e.From, e.To), e.Weight)
		}
	}
	if got.Label(3) != "d" {
		t.Fatalf("labels lost: %q", got.Label(3))
	}
}

func TestJSONRoundTripNoLabels(t *testing.T) {
	g := NewGraph(2)
	g.SetTrust(0, 1, 0.25)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label(0) != "G0" {
		t.Fatal("labels should be absent and defaulted")
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{`,
		`{"n": -1, "edges": []}`,
		`{"n": 2, "edges": [{"from": 5, "to": 0, "weight": 1}]}`,
		`{"n": 2, "edges": [{"from": 0, "to": 1, "weight": -3}]}`,
		`{"n": 2, "edges": [{"from": 0, "to": 1, "weight": 0}]}`,
		`{"n": 2, "labels": ["just-one"], "edges": []}`,
		fmt.Sprintf(`{"n": %d, "edges": []}`, MaxEntries+1),
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted: %s", i, c)
		}
	}
}

func TestReadJSONEmptyGraph(t *testing.T) {
	g, err := ReadJSON(strings.NewReader(`{"n": 0, "edges": []}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 {
		t.Fatal("empty graph mis-parsed")
	}
}

func TestWriteDOT(t *testing.T) {
	g := NewGraph(2)
	g.SetLabels([]string{"alpha", "beta"})
	g.SetTrust(0, 1, 0.5)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph trust", `"alpha"`, "0 -> 1", "0.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestGraphString(t *testing.T) {
	g := NewGraph(3)
	g.SetTrust(0, 1, 1)
	s := g.String()
	if !strings.Contains(s, "n=3") || !strings.Contains(s, "edges=1") {
		t.Fatalf("String() = %q", s)
	}
}
