package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"falvolt/internal/campaign"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Workloads []struct {
		Name string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestTailNeedsTenTrialsBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		ok     bool
		pct, v float64
	}{
		{n: 1},
		{n: 9}, // a retraining run: p50 is all there is, so no tail
		{n: 39},
		{n: 40, ok: true, pct: 75, v: 30},
		{n: 100, ok: true, pct: 90, v: 90},
		{n: 199, ok: true, pct: 90, v: 180},
		{n: 200, ok: true, pct: 95, v: 190},
		{n: 1138, ok: true, pct: 99, v: 1127},
		{n: 10000, ok: true, pct: 99.9, v: 9990},
	} {
		pct, v, ok := tail(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || v != tc.v {
			t.Errorf("n=%d: tail = (p%g, %g, %v), want (p%g, %g, %v)", tc.n, pct, v, ok, tc.pct, tc.v, tc.ok)
		}
		if ok && v <= median(seq(tc.n)) {
			t.Errorf("n=%d: tail %g does not lie above the median", tc.n, v)
		}
	}
	// A run whose trials all take the same time has no tail either way:
	// with 12 trials the tail must be omitted, not reported equal to p50.
	same := []float64{3.2, 3.2, 3.2, 3.2, 3.2, 3.2, 3.2, 3.2, 3.2, 3.2, 3.2, 3.2}
	if pct, v, ok := tail(same); ok {
		t.Errorf("12 equal trials: tail p%g = %g reported; want omitted", pct, v)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		// statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
		{[]float64{1, 5}, 0, 6},
	} {
		q1, q3, err := quartiles(tc.xs)
		if err != nil || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %v; want %g, %g", tc.xs, q1, q3, err, tc.q1, tc.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestNamesUseTheBenchmarkCharset(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the charset", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is outside the charset", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better %q", d.name, d.better)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", strings.Repeat("a", 65), "é"} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json names %q, the program %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

func TestEmitNeedsExactlyTheDeclaredMetrics(t *testing.T) {
	full := metricSet{}
	for i, d := range endToEnd {
		full[d.name] = float64(i + 1)
	}
	got, err := full.emit(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if got[d.name].Unit != d.unit || got[d.name].Value == 0 {
			t.Errorf("%s emitted as %+v", d.name, got[d.name])
		}
	}
	missing := metricSet{}
	for k, v := range full {
		missing[k] = v
	}
	delete(missing, "setup_s")
	if _, err := missing.emit(endToEnd); err == nil || !strings.Contains(err.Error(), "setup_s") {
		t.Errorf("missing setup_s: err = %v", err)
	}
	extra := metricSet{"trial_tail_s": 1}
	extra.merge(full)
	if _, err := extra.emit(endToEnd); err == nil || !strings.Contains(err.Error(), "trial_tail_s") {
		t.Errorf("undeclared metric: err = %v", err)
	}
	nan := metricSet{}
	nan.merge(full)
	nan["trial_p50_s"] = math.NaN()
	if _, err := nan.emit(endToEnd); err == nil {
		t.Error("NaN metric emitted")
	}
}

func fakeResults() []campaign.Result {
	var rs []campaign.Result
	for i := 0; i < 4; i++ {
		rs = append(rs, campaign.Result{TrialID: i, Key: "k", Wall: float64(i),
			Metrics: map[string]float64{"acc": 0.5 + float64(i)/16, "mac": 5549.25}})
	}
	return rs
}

func TestDigestCheckFailsOnAPerturbedResult(t *testing.T) {
	rs := fakeResults()
	sum, err := resultDigest(rs, 3)
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]digestEntry{"w/1": {Fingerprint: "fp", Trials: 3, SHA256: sum}}
	if found, err := checkDigest(table, "w/1", "fp", rs); !found || err != nil {
		t.Fatalf("unperturbed: found=%v err=%v", found, err)
	}
	// Wall is not part of a result's identity.
	rs[1].Wall = 99
	if _, err := checkDigest(table, "w/1", "fp", rs); err != nil {
		t.Errorf("changed wall time: %v", err)
	}
	// One ulp in one metric of one trial must fail.
	rs[1].Metrics["acc"] = math.Nextafter(rs[1].Metrics["acc"], 1)
	if _, err := checkDigest(table, "w/1", "fp", rs); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("perturbed result: err = %v", err)
	}
	rs = fakeResults()
	if _, err := checkDigest(table, "w/1", "other", rs); err == nil || !strings.Contains(err.Error(), "another spec") {
		t.Errorf("stale fingerprint: err = %v", err)
	}
	if _, err := checkDigest(table, "w/1", "fp", rs[:2]); err == nil {
		t.Error("too few trials: want an error")
	}
	if found, err := checkDigest(table, "w/2", "fp", rs); found || err != nil {
		t.Errorf("unrecorded seed: found=%v err=%v", found, err)
	}
}

func TestRecheckFailsOnAPerturbedResult(t *testing.T) {
	rs := fakeResults()
	trials := make([]campaign.Trial, len(rs))
	for i := range trials {
		trials[i] = campaign.Trial{ID: i, Key: "k"}
	}
	honest := campaign.WorkerFunc(func(t campaign.Trial) (campaign.Result, error) {
		r := fakeResults()[t.ID]
		r.Wall = 7
		return r, nil
	})
	if err := recheck(honest, trials, rs[2:]); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	drifting := campaign.WorkerFunc(func(t campaign.Trial) (campaign.Result, error) {
		r := fakeResults()[t.ID]
		r.Metrics["mac"]++
		return r, nil
	})
	if err := recheck(drifting, trials, rs[2:]); err == nil || !strings.Contains(err.Error(), "differ") {
		t.Errorf("perturbed worker: err = %v", err)
	}
}

func TestCommittedDigestsParse(t *testing.T) {
	table, err := loadDigests(digestsJSON)
	if err != nil {
		t.Fatal(err)
	}
	for key, e := range table {
		name, _, ok := strings.Cut(key, "/")
		w, err := workloadByName(name)
		if !ok || err != nil {
			t.Errorf("digest key %q names no workload", key)
			continue
		}
		if e.Trials != w.digestTrials || len(e.SHA256) != 64 || e.Fingerprint == "" {
			t.Errorf("digest %s: %+v", key, e)
		}
	}
}

// TestRunEmitsEveryDeclaredMetric runs the site sweep briefly in both
// modes (the traced run also replays a fap-infer probe) and checks the
// result line names every BENCHMARK.json metric, with its unit.
func TestRunEmitsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bf := readBenchmarkFile(t)
	units := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		units["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units["1"][m.Name] = m.Unit
	}
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "sitesweep", "--seed", "3", "--seconds", "0.5",
			"--trace", trace, "--spans", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("trace %s: %+v", trace, line)
		}
		if len(line.Metrics) != len(units[trace]) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json declares %d", trace, len(line.Metrics), len(units[trace]))
		}
		for name, unit := range units[trace] {
			if m, ok := line.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("trace %s: %s = %+v, want unit %s", trace, name, m, unit)
			}
		}
	}
}
