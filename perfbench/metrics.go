package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"trials_per_s", "1/s", "higher"},
	{"trial_p50_s", "s", "lower"},
	{"cpu_s_per_trial", "s", "lower"},
	{"alloc_mb_per_trial", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerKinds groups snn layers for the per-kind inference and training
// profiles.
var layerKinds = []string{"conv", "linear", "bn", "plif", "pool", "other"}

// perLayer are the metrics a traced run reports, on every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"spec.build_s", "s", "lower"},
		{"core.baseline_build_s", "s", "lower"},
		{"faults.enumerate_s", "s", "lower"},
		{"faults.enumerate_heap_mb", "MB", "lower"},
		{"snn.load_state_s", "s", "lower"},
		{"faults.inject_s", "s", "lower"},
		{"snn.eval_raw_s", "s", "lower"},
		{"mitigation.apply_s", "s", "lower"},
		{"snn.eval_salvaged_s", "s", "lower"},
		{"faults.faulty_pes", "count", "lower"},
		{"mitigation.eval_passes", "ratio", "lower"},
		{"systolic.accumulations_per_trial", "count", "lower"},
		{"systolic.bypassed_steps_per_trial", "count", "lower"},
		{"systolic.tile_passes_per_trial", "count", "lower"},
		{"systolic.mac_cycles_per_inference", "cycles", "lower"},
	}
	for _, k := range layerKinds {
		defs = append(defs, metricDef{"snn.infer." + k + ".fwd_ms", "ms", "lower"})
	}
	defs = append(defs, metricDef{"systolic.ns_per_acc", "ns", "lower"})
	for _, k := range layerKinds {
		defs = append(defs,
			metricDef{"snn.train." + k + ".fwd_ms", "ms", "lower"},
			metricDef{"snn.train." + k + ".bwd_ms", "ms", "lower"},
			metricDef{"snn.train." + k + ".allocs", "count", "lower"})
	}
	return append(defs,
		metricDef{"snn.train_epoch_s", "s", "lower"},
		metricDef{"runtime.gc_cpu_frac", "ratio", "lower"},
		metricDef{"runtime.allocs_per_trial", "count", "lower"},
		metricDef{"faults.site_map_s", "s", "lower"},
		metricDef{"systolic.inject_s", "s", "lower"},
		metricDef{"systolic.forward_s", "s", "lower"},
		metricDef{"systolic.clear_s", "s", "lower"},
		metricDef{"systolic.accumulations_per_forward", "count", "lower"},
		metricDef{"campaign.overhead_frac", "ratio", "lower"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
	)
}()

// metricSet holds measured values by metric name.
type metricSet map[string]float64

// jsonMetric is one entry of the result line's "metrics" object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit renders exactly the metrics of defs. A missing, unknown or
// non-finite value is an error: the result line must name every metric
// the benchmark declares and nothing else.
func (m metricSet) emit(defs []metricDef) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	var unknown []string
	for name := range m {
		if _, ok := out[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics not declared: %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// merge copies the values of o that m does not hold yet.
func (m metricSet) merge(o metricSet) {
	for k, v := range o {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
}
