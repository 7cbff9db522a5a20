// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload through the path users run (spec.Build, the campaign's
// worker, campaign.PoolRunner on one serial lane), checks the results
// byte for byte and prints the metrics. See README.md for the
// workloads, the metrics and what each per-layer metric should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fap-infer --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload falvolt-retrain --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh --repeat 10 --sets 2 --workload all --seconds 30
//	bash perfbench/run.sh --record perfbench/digests.json --workload sitesweep --seed 1
//
// The last line of standard output is the result: one JSON object with
// the keys correct, attempted, failed and metrics. Progress and a
// human-readable report go to standard error. The exit code is non-zero
// when a trial fails, too few trials complete or an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	_ "falvolt/internal/core"        // registers the sitesweep kind
	_ "falvolt/internal/experiments" // registers the salvage kind
	"falvolt/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultLine is the benchmark's contract with its caller.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (repeat mode also takes \"all\")")
	seed := fs.Int64("seed", 1, "workload seed; it becomes the spec seed")
	seconds := fs.Float64("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for span files of traced runs")
	repeat := fs.Int("repeat", 0, "repeat mode: run each workload this many times, seeds seed..seed+N-1, and print spreads")
	sets := fs.Int("sets", 1, "repeat mode: make this many sets of the runs, interleaved run by run, and compare their medians")
	recordPath := fs.String("record", "", "record mode: store the digest of the workload's first trials for --seed in this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "--trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *repeat > 0 {
		if *sets < 1 {
			fmt.Fprintf(stderr, "--sets must be at least 1, got %d\n", *sets)
			return 2
		}
		return repeatMode(*name, *seed, *seconds, *repeat, *sets, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// One trial at a time on one core: the second core is left to the
	// garbage collector and the harness.
	tensor.SetDefault(tensor.Serial())
	if *recordPath != "" {
		if err := record(w, *seed, *recordPath, stderr); err != nil {
			fmt.Fprintf(stderr, "record: %v\n", err)
			return 1
		}
		return 0
	}

	var out outcome
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		out, err = traceRun(w, *seed, *seconds, *spansDir, stderr)
	} else {
		out, err = timedRun(w, *seed, *seconds, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	line := resultLine{Correct: out.correct, Attempted: out.attempted, Failed: out.failed}
	if out.correct {
		if line.Metrics, err = out.metrics.emit(defs); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
	} else {
		line.Metrics = map[string]jsonMetric{}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.correct || out.failed > 0 {
		return 1
	}
	return 0
}
