package gridvo

// Cross-module integration: the full product pipeline through real file
// I/O — generate an SWF trace, write and re-read it, derive a program,
// build Table I parameters, form a VO with TVOF, execute it with failure
// injection, fold the outcomes back into trust, and re-form. Each step
// crosses a package boundary; the assertions check the *contracts* between
// them rather than any single module's behaviour.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"gridvo/internal/assign"
	"gridvo/internal/exec"
	"gridvo/internal/grid"
	"gridvo/internal/mechanism"
	"gridvo/internal/reputation"
	"gridvo/internal/swf"
	"gridvo/internal/trust"
	"gridvo/internal/workload"
	"gridvo/internal/xrand"
)

func TestFullPipelineIntegration(t *testing.T) {
	rng := xrand.New(2026)
	const m = 8
	const programSize = 64

	// 1. Trace on disk.
	tracePath := filepath.Join(t.TempDir(), "atlas.swf")
	gen := swf.GenerateAtlas(rng.Split("trace"), swf.GenOptions{
		NumJobs:        2000,
		GuaranteeSizes: []int{programSize},
		MinPerSize:     4,
	})
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := swf.Write(f, gen); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// 2. Re-read and index it.
	f, err = os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := swf.Parse(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != len(gen.Jobs) {
		t.Fatalf("disk round trip lost jobs: %d vs %d", len(tr.Jobs), len(gen.Jobs))
	}
	if tr.Meta().Version != "2.2" {
		t.Fatal("trace metadata lost on disk")
	}
	cat := workload.NewCatalog(tr, 0, 0)
	if cat.Count(programSize) < 4 {
		t.Fatalf("catalog supply for %d tasks: %d", programSize, cat.Count(programSize))
	}

	// 3. Program and scenario.
	prog, err := cat.Pick(rng.Split("prog"), programSize, "IT")
	if err != nil {
		t.Fatal(err)
	}
	gsps := grid.GenerateGSPs(rng.Split("gsps"), m)
	tm := grid.TimeMatrix(gsps, prog)
	if _, _, _, ok := grid.IsTimeConsistent(tm); !ok {
		t.Fatal("time matrix inconsistent")
	}
	cost := grid.CostMatrix(rng.Split("cost"), m, prog)
	if _, _, _, ok := grid.IsCostWorkloadMonotone(cost, prog); !ok {
		t.Fatal("cost matrix not workload-monotone")
	}
	sc := &mechanism.Scenario{
		Program: prog, GSPs: gsps, Cost: cost, Time: tm,
		Trust: trust.ErdosRenyi(rng.Split("trust"), m, 0.4),
	}
	grand := make([]int, m)
	for i := range grand {
		grand[i] = i
	}
	dp := rng.Split("dp")
	for {
		sc.Deadline = 4 * grid.Deadline(dp, prog)
		sc.Payment = grid.Payment(dp, prog.N())
		if assign.Solve(sc.Instance(grand), assign.Options{}).Feasible {
			break
		}
	}

	// 4. Form the VO; cross-check the mechanism's arithmetic against the
	// assignment verifier and the reputation module.
	res, err := mechanism.TVOFContext(context.Background(), sc, rng.Split("tvof"))
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	if final == nil {
		t.Fatal("no VO formed on a feasible scenario")
	}
	inst := sc.Instance(final.Members)
	if err := assign.Verify(inst, final.Assignment); err != nil {
		t.Fatalf("selected assignment violates the IP: %v", err)
	}
	if got := assign.TotalCost(inst, final.Assignment); got > sc.Payment {
		t.Fatalf("cost %v exceeds payment %v", got, sc.Payment)
	}
	global, _, err := reputation.Global(sc.Trust, reputation.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want := reputation.AverageOf(global, final.Members); final.AvgReputation != want {
		t.Fatalf("recorded avg reputation %v != recomputed %v", final.AvgReputation, want)
	}

	// 5. Execute with an injected lemon and fold outcomes into trust.
	reliability := make([]float64, m)
	for i := range reliability {
		reliability[i] = 1
	}
	// Lemon: the member receiving the most trust from its co-members, so
	// the renege actually severs weighted edges.
	lemon, bestIn := final.Members[0], -1.0
	for _, g := range final.Members {
		in := 0.0
		for _, o := range final.Members {
			in += sc.Trust.Trust(o, g)
		}
		if in > bestIn {
			bestIn, lemon = in, g
		}
	}
	reliability[lemon] = 0
	rep, members, err := mechanism.ExecuteFinal(sc, res, reliability, exec.Options{}, rng.Split("exec"))
	if err != nil {
		t.Fatal(err)
	}
	hist := trust.NewHistory(m)
	if err := mechanism.RecordOutcomes(hist, members, rep); err != nil {
		t.Fatal(err)
	}
	if err := hist.ApplyTo(sc.Trust); err != nil {
		t.Fatal(err)
	}

	// 6. If the lemon reneged mid-run, every VO member's trust edge to it
	// is zeroed, so its *global* reputation must strictly drop. (Full
	// exclusion from the next VO is not a mechanism guarantee — GSPs
	// outside the burned VO still hold their prior trust.)
	lemonLocal := -1
	for i, g := range members {
		if g == lemon {
			lemonLocal = i
		}
	}
	if !rep.Delivered[lemonLocal] {
		for _, observer := range members {
			if observer != lemon && sc.Trust.Trust(observer, lemon) != 0 {
				t.Fatalf("observer %d still trusts the reneging provider", observer)
			}
		}
		after, _, err := reputation.Global(sc.Trust, reputation.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if after[lemon] > global[lemon]+1e-12 {
			t.Fatalf("lemon reputation rose after trust collapse: %v -> %v", global[lemon], after[lemon])
		}
		if bestIn > 0 && after[lemon] >= global[lemon] {
			t.Fatalf("severing weighted trust (%v in-mass) left reputation unchanged: %v", bestIn, after[lemon])
		}
		// And a re-formed VO must still be valid end to end.
		res2, err := mechanism.TVOFContext(context.Background(), sc, rng.Split("tvof2"))
		if err != nil {
			t.Fatal(err)
		}
		if f2 := res2.Final(); f2 != nil {
			if err := assign.Verify(sc.Instance(f2.Members), f2.Assignment); err != nil {
				t.Fatalf("re-formed assignment invalid: %v", err)
			}
		}
	}
}
