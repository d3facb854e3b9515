package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro"
)

func tinyConfig(t *testing.T, workload string) config {
	return config{
		workload: workload, seed: 7, seconds: 1, dir: t.TempDir(),
		clients: min(2, runtime.NumCPU()), episodes: 2, rounds: 1, small: true,
	}
}

func TestEvalModel(t *testing.T) {
	w := maxsat.NewWCNF(2)
	w.AddHard(maxsat.FromDIMACS(1), maxsat.FromDIMACS(2))
	w.AddSoft(3, maxsat.FromDIMACS(-1))
	w.AddSoft(5, maxsat.FromDIMACS(-2))
	if cost, err := evalModel(w, maxsat.Assignment{true, false}); err != nil || cost != 3 {
		t.Fatalf("evalModel = %d, %v; want 3, nil", cost, err)
	}
	if _, err := evalModel(w, maxsat.Assignment{false, false}); err == nil {
		t.Fatal("a model falsifying the hard clause was accepted")
	}
	if _, err := evalModel(w, maxsat.Assignment{true}); err == nil {
		t.Fatal("a model too short for the formula was accepted")
	}
}

func TestBMCOptimum(t *testing.T) {
	for _, c := range []struct {
		counter bool
		n, k    int
		want    maxsat.Weight
	}{
		{true, 2, 3, 3}, {true, 2, 4, 3}, {true, 2, 9, 7}, {true, 4, 40, 38},
		{false, 6, 4, 4}, {false, 6, 6, 6}, {false, 6, 40, 6},
	} {
		if got := bmcOptimum(c.counter, c.n, c.k); got != c.want {
			t.Errorf("bmcOptimum(%v, %d, %d) = %d, want %d", c.counter, c.n, c.k, got, c.want)
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestTinyRuns runs every workload at a tiny size, untraced and traced: all
// answers check out, and each run reports exactly the metrics
// BENCHMARK.json declares.
func TestTinyRuns(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, name)
			cfg.trace = traced
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v",
					name, traced, rep.correct, rep.attempted, rep.failed, rep.notes)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				if _, ok := rep.metrics[m]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m)
				}
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(rep.metrics), len(want))
			}
		}
	}
}

// TestWrongAnswersFail shows that the checks catch a wrong cost, a flipped
// certificate byte, and a session answer off by one: every operation whose
// answer was altered is counted as failed.
func TestWrongAnswersFail(t *testing.T) {
	for _, c := range []struct {
		name, workload string
		tamper         func(*maxsat.Result)
	}{
		{"wrong cost", "cold-cert", func(r *maxsat.Result) { r.Cost++ }},
		{"flipped certificate byte", "cold-cert", func(r *maxsat.Result) {
			r.Certificate = append([]byte(nil), r.Certificate...)
			r.Certificate[4] ^= 0xff // the certificate's kind
		}},
		{"hit with wrong cost", "hot-hits", func(r *maxsat.Result) { r.Cost++ }},
		{"session answer off by one", "bmc-session", func(r *maxsat.Result) { r.Cost-- }},
	} {
		cfg := tinyConfig(t, c.workload)
		cfg.tamper = c.tamper
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.attempted == 0 || rep.failed != rep.attempted {
			t.Errorf("%s: %d of %d operations counted as failed, want all", c.name, rep.failed, rep.attempted)
		}
	}
}
