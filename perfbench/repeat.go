package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Repeat mode runs each workload N times, each run a separate process
// (peak RSS is per process) with its own seed, and prints every
// end-to-end metric's median, quartiles and spread: (q3-q1)/median, the
// figure a metric's bound in BENCHMARK.json must stay three times above.
//
// With sets > 1 it makes that many sets of the same runs, interleaved
// run by run (seed, then workload, then set), so host drift during the
// repeat falls on every set alike; it then prints each set's medians as
// a change from the first set's, the figure the bounds are compared to
// when two sets of the same code are measured. host_ref_ms, the run's
// host-speed reference (hostRefMS), is summarised beside the metrics so
// a reader can tell host drift from a change in the program.
func repeatMode(name string, seed int64, seconds float64, n, sets int, stdout, stderr io.Writer) int {
	var ws []workload
	if name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		ws = []workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	names := []string{hostRefName}
	units := map[string]string{hostRefName: "ms"}
	for _, d := range endToEnd {
		names = append(names, d.name)
		units[d.name] = d.unit
	}
	// values[workload][set][metric] are the runs' figures in seed order.
	values := map[string][]map[string][]float64{}
	for _, w := range ws {
		values[w.name] = make([]map[string][]float64, sets)
		for k := range values[w.name] {
			values[w.name][k] = map[string][]float64{}
		}
	}
	code := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		for _, w := range ws {
			for k := 0; k < sets; k++ {
				fmt.Fprintf(stderr, "== %s seed %d set %d\n", w.name, s, k+1)
				got, err := runChild(self, w.name, s, seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "%s seed %d: %v\n", w.name, s, err)
					code = 1
					continue
				}
				for _, m := range names {
					values[w.name][k][m] = append(values[w.name][k][m], got[m])
				}
			}
		}
	}

	type summary struct {
		Median, Q1, Q3, Spread float64
		Unit                   string
		Values                 []float64
	}
	// all[workload][set][metric]
	all := map[string][]map[string]summary{}
	for _, w := range ws {
		all[w.name] = make([]map[string]summary, sets)
		for k := 0; k < sets; k++ {
			all[w.name][k] = map[string]summary{}
			fmt.Fprintf(stderr, "\n%s set %d: %d runs of %gs, seeds %d..%d\n", w.name, k+1, n, seconds, seed, seed+int64(n)-1)
			fmt.Fprintf(stderr, "  %-20s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "vs set 1")
			for _, m := range names {
				vs := values[w.name][k][m]
				if len(vs) < 2 {
					continue
				}
				q1, q3, _ := quartiles(vs)
				med := median(vs)
				sm := summary{Median: med, Q1: q1, Q3: q3, Spread: (q3 - q1) / med, Unit: units[m], Values: vs}
				all[w.name][k][m] = sm
				change := ""
				if base, ok := all[w.name][0][m]; ok && k > 0 {
					change = fmt.Sprintf("%+7.2f%%", 100*(med/base.Median-1))
				}
				fmt.Fprintf(stderr, "  %-20s %12.6g %12.6g %12.6g %7.2f%% %8s %s\n", m, med, q1, q3, 100*sm.Spread, change, units[m])
			}
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return code
}

// runChild runs one untraced benchmark process and returns its metric
// values and its host_ref_ms (the mean of the two readings). The child's
// report is passed through to stderr.
func runChild(self, workload string, seed int64, seconds float64, stderr io.Writer) (map[string]float64, error) {
	var out, report bytes.Buffer
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stdout = &out
	cmd.Stderr = io.MultiWriter(stderr, &report)
	runErr := cmd.Run() // waits for the child to exit
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	if runErr != nil || !line.Correct || line.Failed > 0 {
		return nil, fmt.Errorf("run failed (correct=%v failed=%d): %v", line.Correct, line.Failed, runErr)
	}
	got := map[string]float64{}
	for name, m := range line.Metrics {
		got[name] = m.Value
	}
	ref := hostRefRE.FindStringSubmatch(report.String())
	if ref == nil {
		return nil, fmt.Errorf("no %s line in the run's report", hostRefName)
	}
	before, err1 := strconv.ParseFloat(ref[1], 64)
	after, err2 := strconv.ParseFloat(ref[2], 64)
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	got[hostRefName] = (before + after) / 2
	return got, nil
}

const hostRefName = "host_ref_ms"

var hostRefRE = regexp.MustCompile(hostRefName + `\s+(\S+) ms before set-up, (\S+) ms after`)
