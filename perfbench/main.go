// Command perfbench is the end-to-end benchmark of the solving service. It
// drives maxsat.Server through its in-process public API (ParseWCNF →
// Submit → Wait for one-shot requests; OpenSession → Push → Solve → Wait for
// incremental sessions) as a closed loop, checks every answer independently
// of the program, and prints one JSON result line. See README.md.
//
//	perfbench -workload cold-cert -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-cert, hot-hits or bmc-session")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (inputs are a function of it)")
	flag.IntVar(&cfg.seconds, "seconds", 30, "nominal length of the timed segments together; sizes the fixed work of a run")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for data directories and span files")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	cfg.clients = runtime.NumCPU()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.notes {
		fmt.Println(line)
	}
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}
