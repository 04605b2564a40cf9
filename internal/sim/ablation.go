package sim

import (
	"context"
	"fmt"

	"gridvo/internal/mechanism"
	"gridvo/internal/reputation"
	"gridvo/internal/stats"
	"gridvo/internal/tablewriter"
)

// Eviction-rule ablation (extension; DESIGN.md §6): replace TVOF's
// power-method eviction with the other centrality measures, with random
// eviction, and with the merge-and-split baseline, on identical scenarios,
// and compare the final VO's payoff and average global reputation.

// AblationRule identifies one contender.
type AblationRule struct {
	Name string
	// Rule/Centrality configure mechanism.RunContext; MergeSplit selects the
	// merge-and-split baseline instead.
	Rule       mechanism.EvictionRule
	Centrality reputation.Centrality
	MergeSplit bool
}

// DefaultAblationRules returns the full contender set.
func DefaultAblationRules() []AblationRule {
	return []AblationRule{
		{Name: "tvof-power", Rule: mechanism.EvictLowestReputation},
		{Name: "rvof-random", Rule: mechanism.EvictRandom},
		{Name: "in-degree", Rule: mechanism.EvictLowestCentrality, Centrality: reputation.CentralityInDegree},
		{Name: "closeness", Rule: mechanism.EvictLowestCentrality, Centrality: reputation.CentralityCloseness},
		{Name: "betweenness", Rule: mechanism.EvictLowestCentrality, Centrality: reputation.CentralityBetweenness},
		{Name: "pagerank", Rule: mechanism.EvictLowestCentrality, Centrality: reputation.CentralityPageRank},
		{Name: "merge-split", MergeSplit: true},
	}
}

// AblationRow aggregates one rule's replicated outcomes.
type AblationRow struct {
	Name    string
	Payoff  []float64
	AvgRep  []float64
	Seconds []float64
	VOSize  []float64
	Failed  int // replicates where no VO formed
}

// AblationResult is the rule × replicate grid.
type AblationResult struct {
	Size int
	Rows []AblationRow
}

// EvictionAblation runs every contender on the same scenarios (one per
// repetition) at the given program size. Solves poll ctx and degrade to
// heuristic incumbents once it is done.
func (e *Env) EvictionAblation(ctx context.Context, size int, rules []AblationRule) (*AblationResult, error) {
	if len(rules) == 0 {
		rules = DefaultAblationRules()
	}
	res := &AblationResult{Size: size}
	rows := make([]AblationRow, len(rules))
	for i, r := range rules {
		rows[i].Name = r.Name
	}
	for rep := 0; rep < e.Config.Repetitions; rep++ {
		sc, _, _, err := e.buildScenario(size, 9000+rep)
		if err != nil {
			return nil, err
		}
		for ri, rule := range rules {
			row := &rows[ri]
			if rule.MergeSplit {
				ms, err := mechanism.MergeSplitContext(ctx, sc, mechanism.MergeSplitOptions{Solver: e.Config.Solver})
				if err != nil {
					return nil, err
				}
				if ms.Selected == nil {
					row.Failed++
					continue
				}
				row.Payoff = append(row.Payoff, ms.Payoff)
				row.AvgRep = append(row.AvgRep, ms.AvgReputation)
				row.Seconds = append(row.Seconds, ms.Duration.Seconds())
				row.VOSize = append(row.VOSize, float64(len(ms.Selected)))
				continue
			}
			opts := e.Config.mechanismOptions(rule.Rule)
			opts.Centrality = rule.Centrality
			mres, err := mechanism.RunContext(ctx, sc, opts, e.rng.Split(fmt.Sprintf("abl-%s-%d-%d", rule.Name, size, rep)))
			if err != nil {
				return nil, err
			}
			final := mres.Final()
			if final == nil {
				row.Failed++
				continue
			}
			row.Payoff = append(row.Payoff, final.Payoff)
			row.AvgRep = append(row.AvgRep, final.AvgReputation)
			row.Seconds = append(row.Seconds, mres.Duration.Seconds())
			row.VOSize = append(row.VOSize, float64(final.Size()))
		}
	}
	res.Rows = rows
	return res, nil
}

// AblationTable renders the ablation as a table.
func AblationTable(r *AblationResult) *tablewriter.Table {
	t := tablewriter.New("rule", "payoff", "avg_reputation", "vo_size", "seconds", "failed")
	t.SetTitle(fmt.Sprintf("Eviction-rule ablation (n=%d tasks, mean over repetitions)", r.Size))
	for _, row := range r.Rows {
		t.AddRow(
			row.Name,
			tablewriter.Ftoa(stats.Mean(row.Payoff), 2),
			tablewriter.Ftoa(stats.Mean(row.AvgRep), 4),
			tablewriter.Ftoa(stats.Mean(row.VOSize), 2),
			tablewriter.Ftoa(stats.Mean(row.Seconds), 4),
			tablewriter.Itoa(row.Failed),
		)
	}
	return t
}
