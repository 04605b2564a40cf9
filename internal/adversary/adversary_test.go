package adversary

import (
	"reflect"
	"strings"
	"testing"

	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// honestGraph builds a reproducible honest trust graph for the tests.
func honestGraph(seed uint64, n int) *trust.Graph {
	return trust.ErdosRenyi(xrand.New(seed), n, 0.2)
}

func TestSpecValidateTable(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		n    int
		want string // substring of the error, "" = valid
	}{
		{"collusion-ok", Spec{Class: ClassCollusion, Size: 4}, 16, ""},
		{"sybil-ok", Spec{Class: ClassSybil, Size: 8}, 16, ""},
		{"whitewash-ok", Spec{Class: ClassWhitewash, Size: 3}, 16, ""},
		{"slander-ok", Spec{Class: ClassSlander, Size: 2, Rate: 0.5}, 16, ""},
		{"zero-size-any-class", Spec{Class: ClassSlander}, 16, ""},
		{"unknown-class", Spec{Class: "eclipse", Size: 2}, 16, `unknown class "eclipse"`},
		{"empty-class", Spec{Size: 2}, 16, `unknown class ""`},
		{"negative-size", Spec{Class: ClassSybil, Size: -1}, 16, "negative attack size"},
		{"negative-rate", Spec{Class: ClassSlander, Size: 2, Rate: -0.1}, 16, "rate -0.1 outside [0,1]"},
		{"rate-above-one", Spec{Class: ClassSlander, Size: 2, Rate: 1.5}, 16, "outside [0,1]"},
		{"negative-weight", Spec{Class: ClassCollusion, Size: 2, Weight: -3}, 16, "invalid trust weight"},
		{"clique-of-one", Spec{Class: ClassCollusion, Size: 1}, 16, "at least 2 members"},
		{"clique-too-big", Spec{Class: ClassCollusion, Size: 17}, 16, "clique size 17 exceeds 16 GSPs"},
		{"whitewash-too-big", Spec{Class: ClassWhitewash, Size: 20}, 16, "attacker count 20 exceeds 16"},
		{"slander-too-big", Spec{Class: ClassSlander, Size: 20, Rate: 0.1}, 16, "attacker count 20 exceeds 16"},
		{"whitewash-tiny-graph", Spec{Class: ClassWhitewash, Size: 1}, 1, "at least 2 GSPs"},
		{"sybil-empty-graph", Spec{Class: ClassSybil, Size: 2}, 0, "at least one honest GSP"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.ValidateFor(tc.n)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("ValidateFor(%d) = %v, want nil", tc.n, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ValidateFor(%d) = %v, want error containing %q", tc.n, err, tc.want)
			}
		})
	}
}

// TestZeroSizeIsStrictNoOp pins the bitwise zero-attacker guarantee: a
// zero-Size spec must neither mutate the graph nor consume randomness.
func TestZeroSizeIsStrictNoOp(t *testing.T) {
	for _, class := range Classes {
		g := honestGraph(1, 12)
		want := g.Clone()
		rng := xrand.New(99)
		probe := xrand.New(99)
		sp := &Spec{Class: class, Rate: 0.5}
		rep, err := sp.Apply(rng, g)
		if err != nil {
			t.Fatalf("%s: Apply: %v", class, err)
		}
		if len(rep.Attackers) != 0 || rep.Ringleader != -1 {
			t.Fatalf("%s: zero-size report = %+v", class, rep)
		}
		if !reflect.DeepEqual(g.Edges(), want.Edges()) || g.N() != want.N() {
			t.Fatalf("%s: zero-size attack mutated the graph", class)
		}
		if rng.Uint64() != probe.Uint64() {
			t.Fatalf("%s: zero-size attack consumed randomness", class)
		}
	}
	var nilSpec *Spec
	rep, err := nilSpec.Apply(xrand.New(1), honestGraph(1, 4))
	if err != nil || rep == nil || rep.Ringleader != -1 {
		t.Fatalf("nil spec: rep=%+v err=%v", rep, err)
	}
}

func TestApplyDeterministic(t *testing.T) {
	specs := []Spec{
		{Class: ClassCollusion, Size: 4},
		{Class: ClassSybil, Size: 5},
		{Class: ClassWhitewash, Size: 3},
		{Class: ClassSlander, Size: 3, Rate: 0.4},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Class, func(t *testing.T) {
			run := func() ([]trust.Edge, *Report) {
				g := honestGraph(7, 20)
				rep, err := sp.Apply(xrand.New(42), g)
				if err != nil {
					t.Fatalf("Apply: %v", err)
				}
				return g.Edges(), rep
			}
			e1, r1 := run()
			e2, r2 := run()
			if !reflect.DeepEqual(e1, e2) {
				t.Fatalf("edge lists differ between identical runs")
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("reports differ: %+v vs %+v", r1, r2)
			}
			if len(r1.Attackers) == 0 {
				t.Fatalf("no attackers reported for %+v", sp)
			}
		})
	}
}

// TestAttackerNesting pins the nested-sampling contract: the attackers at
// strength k are a subset of the attackers at strength k' > k.
func TestAttackerNesting(t *testing.T) {
	for _, class := range []string{ClassCollusion, ClassWhitewash, ClassSlander} {
		var prev []int
		for _, size := range []int{2, 4, 8} {
			g := honestGraph(3, 24)
			sp := &Spec{Class: class, Size: size, Rate: 0.5}
			rep, err := sp.Apply(xrand.New(11), g)
			if err != nil {
				t.Fatalf("%s size %d: %v", class, size, err)
			}
			if len(rep.Attackers) != size {
				t.Fatalf("%s size %d: got %d attackers", class, size, len(rep.Attackers))
			}
			set := make(map[int]bool, len(rep.Attackers))
			for _, a := range rep.Attackers {
				set[a] = true
			}
			for _, a := range prev {
				if !set[a] {
					t.Fatalf("%s: attacker %d at smaller size missing at size %d", class, a, size)
				}
			}
			prev = rep.Attackers
		}
	}
}

// TestSlanderRateNesting: the slandered edge set at rate ρ is a subset of
// the set at ρ' > ρ for the same seed and attacker count.
func TestSlanderRateNesting(t *testing.T) {
	slanderEdges := func(rate float64) map[[2]int]bool {
		g := honestGraph(5, 24)
		sp := &Spec{Class: ClassSlander, Size: 4, Rate: rate}
		rep, err := sp.Apply(xrand.New(13), g)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		att := make(map[int]bool)
		for _, a := range rep.Attackers {
			att[a] = true
		}
		out := make(map[[2]int]bool)
		for _, e := range g.Edges() {
			if att[e.From] && e.Weight == sp.weightOrDefault() {
				out[[2]int{e.From, e.To}] = true
			}
		}
		return out
	}
	lo, hi := slanderEdges(0.2), slanderEdges(0.6)
	if len(lo) == 0 || len(hi) <= len(lo) {
		t.Fatalf("want 0 < |lo|=%d < |hi|=%d", len(lo), len(hi))
	}
	for e := range lo {
		if !hi[e] {
			t.Fatalf("slander edge %v at rate 0.2 missing at rate 0.6", e)
		}
	}
}

// weightOrDefault exposes the effective weight for tests.
func (sp *Spec) weightOrDefault() float64 {
	if sp.Weight != 0 {
		return sp.Weight
	}
	return defaultWeight(sp.Class)
}

func TestSybilStructure(t *testing.T) {
	const n, k = 16, 6
	g := honestGraph(9, n)
	sp := &Spec{Class: ClassSybil, Size: k}
	rep, err := sp.Apply(xrand.New(21), g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if g.N() != n+k || rep.ExtraGSPs != k {
		t.Fatalf("grew to %d nodes (extra=%d), want %d", g.N(), rep.ExtraGSPs, n+k)
	}
	if rep.Ringleader < 0 || rep.Ringleader >= n {
		t.Fatalf("ringleader %d not an honest GSP", rep.Ringleader)
	}
	if len(rep.Attackers) != k+1 || rep.Attackers[0] != rep.Ringleader {
		t.Fatalf("attackers = %v, want ringleader followed by %d sybils", rep.Attackers, k)
	}
	for _, e := range g.Edges() {
		if e.To >= n && e.From < n {
			t.Fatalf("honest GSP %d trusts sybil %d — sybils must earn no organic trust", e.From, e.To)
		}
	}
	for i := 0; i < k; i++ {
		if g.Trust(n+i, rep.Ringleader) == 0 {
			t.Fatalf("sybil %d does not boost the ringleader", n+i)
		}
	}
}

func TestWhitewashResetsIncomingTrust(t *testing.T) {
	g := honestGraph(2, 20)
	sp := &Spec{Class: ClassWhitewash, Size: 4}
	rep, err := sp.Apply(xrand.New(33), g)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for _, tgt := range rep.Attackers {
		var in []int
		for _, e := range g.Edges() {
			if e.To == tgt {
				in = append(in, e.From)
			}
		}
		if len(in) != 1 {
			t.Fatalf("whitewashed GSP %d has %d in-edges, want exactly the fresh one", tgt, len(in))
		}
		if got := g.Trust(in[0], tgt); got != 0.5 {
			t.Fatalf("fresh re-entry edge weight = %v, want the 0.5 default", got)
		}
	}
}

func TestChurnSchedule(t *testing.T) {
	cs := &ChurnSpec{LeaveRate: 0.3, JoinRate: 0.2, Rounds: 6}
	ev1, err := cs.Schedule(xrand.New(4), 12)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	ev2, _ := cs.Schedule(xrand.New(4), 12)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("schedule not deterministic")
	}
	if len(ev1) == 0 {
		t.Fatalf("rates 0.3/0.2 over 6 rounds produced no churn")
	}
	present := 12
	for _, ev := range ev1 {
		if ev.Round < 0 || ev.Round >= 6 {
			t.Fatalf("event round %d outside schedule", ev.Round)
		}
		present += len(ev.Join) - len(ev.Leave)
		if present < 2 {
			t.Fatalf("schedule left %d GSPs present, want >= 2", present)
		}
	}
	if zero := (&ChurnSpec{}); !zero.IsZero() {
		t.Fatalf("zero spec not IsZero")
	}
	if ev, err := (&ChurnSpec{}).Schedule(xrand.New(1), 8); err != nil || ev != nil {
		t.Fatalf("zero spec schedule = %v, %v", ev, err)
	}
	if _, err := (&ChurnSpec{LeaveRate: -1}).Schedule(xrand.New(1), 8); err == nil {
		t.Fatalf("negative leave rate accepted")
	}
}
