package sim

import (
	"context"
	"strings"
	"testing"
)

func TestEvictionAblation(t *testing.T) {
	env := quickEnv(t, 50)
	res, err := env.EvictionAblation(context.Background(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(DefaultAblationRules()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]*AblationRow{}
	for i := range res.Rows {
		row := &res.Rows[i]
		byName[row.Name] = row
		if len(row.Payoff)+row.Failed != env.Config.Repetitions {
			t.Fatalf("%s: %d outcomes + %d failed != %d reps",
				row.Name, len(row.Payoff), row.Failed, env.Config.Repetitions)
		}
	}
	for _, name := range []string{"tvof-power", "rvof-random", "merge-split"} {
		if byName[name] == nil {
			t.Fatalf("missing rule %s", name)
		}
	}
	// Every mechanism-run rule must form a VO on these feasible scenarios.
	if byName["tvof-power"].Failed != 0 {
		t.Fatal("tvof failed on a feasible scenario")
	}
}

func TestEvictionAblationCustomRules(t *testing.T) {
	env := quickEnv(t, 51)
	res, err := env.EvictionAblation(context.Background(), 32, []AblationRule{{Name: "only-tvof"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Name != "only-tvof" {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestAblationTable(t *testing.T) {
	env := quickEnv(t, 52)
	res, err := env.EvictionAblation(context.Background(), 32, []AblationRule{{Name: "tvof"}})
	if err != nil {
		t.Fatal(err)
	}
	out := renderTable(AblationTable(res))
	if !strings.Contains(out, "tvof") || !strings.Contains(out, "avg_reputation") {
		t.Fatalf("table malformed:\n%s", out)
	}
}

func TestEvictionAblationMissingSize(t *testing.T) {
	env := quickEnv(t, 53)
	if _, err := env.EvictionAblation(context.Background(), 7, nil); err == nil {
		t.Fatal("missing program size accepted")
	}
}
