package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames: every metric name and unit is well formed, and each
// list is sorted and free of duplicates (the result line is emitted in
// sorted order).
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for i, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %s", d.Name, nameRE)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %s listed twice", d.Name)
			}
			seen[d.Name] = true
			if i > 0 && defs[i-1].Name >= d.Name {
				t.Errorf("metric %s is out of order after %s", d.Name, defs[i-1].Name)
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFileAgrees: BENCHMARK.json declares exactly the gated
// workloads and the metrics this program prints.
func TestBenchmarkFileAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	var gated []string
	for _, name := range workloadNames() {
		if cfg.Workloads[name].Gated {
			gated = append(gated, name)
		}
	}
	if !slices.Equal(names, gated) {
		t.Errorf("BENCHMARK.json workloads %v, gated workloads %v", names, gated)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, benchmark %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i := range min(len(bf.EndToEnd), len(endToEnd)) {
		got, want := bf.EndToEnd[i], endToEnd[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
			t.Errorf("end_to_end[%d] = %+v, benchmark declares %+v", i, got, want)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i := range min(len(bf.PerLayer), len(perLayer)) {
		got, want := bf.PerLayer[i], perLayer[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark declares %+v", i, got, want)
		}
	}
}

// TestWorkloadsFile: workloads.json configures every workload, and its
// prediction table names only per-layer metrics and known workloads.
func TestWorkloadsFile(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		sp, ok := cfg.Workloads[name]
		if !ok {
			t.Errorf("workloads.json has no entry for %s", name)
			continue
		}
		if sp.Why == "" || sp.DefaultSeed == 0 || sp.LatencyLimitMS <= 0 {
			t.Errorf("%s: want a reason, a default seed and a latency limit", name)
		}
		if !sp.Gated && sp.GatedWhy == "" {
			t.Errorf("%s: a workload left out of BENCHMARK.json must say why", name)
		}
		if sp.Loop == "open" && sp.RateRPS <= 0 {
			t.Errorf("%s: an open loop needs a fixed rate", name)
		}
	}
	var raw struct {
		Predictions []struct {
			Metric string   `json:"metric"`
			Moves  []string `json:"moves"`
			On     []string `json:"on"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(workloadsJSON, &raw); err != nil {
		t.Fatal(err)
	}
	isLayer := map[string]bool{}
	for _, d := range perLayer {
		isLayer[d.Name] = true
	}
	isE2E := map[string]bool{}
	for _, d := range endToEnd {
		isE2E[d.Name] = true
	}
	for _, p := range raw.Predictions {
		if !isLayer[p.Metric] {
			t.Errorf("prediction for unknown per-layer metric %s", p.Metric)
		}
		for _, m := range p.Moves {
			if !isE2E[m] {
				t.Errorf("prediction %s moves unknown end-to-end metric %s", p.Metric, m)
			}
		}
		for _, w := range p.On {
			if _, ok := workloads[w]; !ok {
				t.Errorf("prediction %s on unknown workload %s", p.Metric, w)
			}
		}
	}
}

// TestResultLine: the result line carries every listed metric, sorted,
// and refuses a metric that was never measured.
func TestResultLine(t *testing.T) {
	rep := newReport(&bytes.Buffer{})
	rep.ops(3, 1)
	rep.zero(perLayer)
	line, err := rep.resultLine(perLayer)
	if err != nil {
		t.Fatal(err)
	}
	var got resultLine
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 3 || got.Failed != 1 || len(got.Metrics) != len(perLayer) {
		t.Errorf("result line %s", line)
	}
	last := ""
	for _, field := range strings.Split(string(line), `":{"value"`)[:len(perLayer)] {
		name := field[strings.LastIndex(field, `"`)+1:]
		if name <= last {
			t.Errorf("metric %s emitted after %s", name, last)
		}
		last = name
	}
	if _, err := rep.resultLine(endToEnd); err == nil {
		t.Error("resultLine accepted end-to-end metrics that were never measured")
	}
}
