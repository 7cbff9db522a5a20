package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strconv"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/faults"
	"falvolt/internal/spec"
)

// The traced run. It sets the workload up once with a span around each
// set-up call, runs an untraced phase (the reference the replay is
// compared against, and the source of the harness and runtime ratios),
// replays the first trials with spans, and profiles the snn layers by
// kind. Layers the workload's own trials never reach (no model in a
// site sweep; no site maps in a salvage campaign) are profiled on a
// probe of the other campaign kind at the same seed, so every traced
// run reports every per-layer metric. Spans go to
// .bench_build/spans/<workload>-<seed>[-probe].json.

// probeFor names the workload whose trials stand in for the layers w's
// trials do not reach.
func probeFor(w workload) string {
	if w.name == "sitesweep" {
		return "fap-infer"
	}
	return "sitesweep"
}

func traceRun(w workload, seed int64, seconds float64, spansDir string, log io.Writer) (outcome, error) {
	own, err := traceWorkload(w, seed, seconds/2, w.replay, log)
	if err != nil {
		return outcome{}, err
	}
	pw, err := workloadByName(probeFor(w))
	if err != nil {
		return outcome{}, err
	}
	probe, err := traceWorkload(pw, seed, 0, pw.probe, log)
	if err != nil {
		return outcome{}, err
	}
	ms := metricSet{}
	ms.merge(own.metrics)
	ms.merge(probe.metrics)
	for _, t := range []struct {
		tr       *tracer
		workload string
		suffix   string
	}{{own.tr, w.name, ""}, {probe.tr, pw.name, "-probe"}} {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-%d%s.json", w.name, seed, t.suffix))
		if err := t.tr.write(path, t.workload, seed); err != nil {
			return outcome{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "spans: %s (%d)\n", path, len(t.tr.spans))
	}
	out := outcome{
		correct:   own.correct && probe.correct,
		attempted: own.attempted + probe.attempted,
		failed:    own.failed + probe.failed,
		metrics:   ms,
	}
	for _, d := range perLayer {
		fmt.Fprintf(log, "  %-36s %14.6g %s\n", d.name, ms[d.name], d.unit)
	}
	return out, nil
}

// replayer re-executes campaign trials with spans (salvageReplay,
// siteReplay).
type replayer interface {
	run(campaign.Trial) (campaign.Result, error)
	metrics() metricSet
	// tracedSecs is each replayed trial's traced time, in replay order.
	tracedSecs() []float64
}

type traced struct {
	outcome
	tr *tracer
}

// traceWorkload runs the traced profile of one workload, replaying
// nReplay trials after an untraced phase of at least seconds.
func traceWorkload(w workload, seed int64, seconds float64, nReplay int, log io.Writer) (traced, error) {
	s := w.spec(seed)
	tr := newTracer()
	var b *spec.Built
	var err error
	tr.do("spec.build", -1, func() { b, err = spec.Build(s, spec.BuildOpts{}) })
	if err != nil {
		return traced{}, err
	}
	var su setup
	su.cam = b.Campaign
	if su.trials, err = b.Campaign.Trials(); err != nil {
		return traced{}, err
	}
	tr.do("campaign.new_worker", -1, func() { su.worker, err = b.Campaign.NewWorker(0) })
	if err != nil {
		return traced{}, err
	}
	ms := metricSet{"spec.build_s": tr.total("spec.build")}

	// The replay's own resources, built through the same public calls
	// the campaign builder makes.
	var rp replayer
	var sr *salvageReplay
	switch {
	case s.Salvage != nil:
		d := s.Salvage.Defaulted()
		sr = &salvageReplay{d: d, tr: tr, inferNS: map[string]float64{}}
		tr.do("core.baseline_build", -1, func() {
			sr.deps, err = core.SyntheticSalvageBuild(d, s.EffectiveSeed(), nil)()
		})
		if err != nil {
			return traced{}, err
		}
		ms["core.baseline_build_s"] = tr.total("core.baseline_build")
		rp = sr
	case s.SiteSweep != nil:
		d := s.SiteSweep.Defaulted()
		var sites []faults.Site
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.do("faults.enumerate", -1, func() { sites, err = enumerate(d, s.EffectiveSeed()) })
		runtime.ReadMemStats(&after)
		if err != nil {
			return traced{}, err
		}
		if err := sameSites(sites, su.trials); err != nil {
			return traced{}, err
		}
		ms["faults.enumerate_s"] = tr.total("faults.enumerate")
		ms["faults.enumerate_heap_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		var r *siteReplay
		tr.do("replay.new_worker", -1, func() { r, err = newSiteReplay(d, s.EffectiveSeed(), tr) })
		if err != nil {
			return traced{}, err
		}
		rp = r
	default:
		return traced{}, fmt.Errorf("workload %s: no replay for kind %q", w.name, s.Kind)
	}

	p := runPhase(su, seconds, nReplay)
	out := traced{outcome: outcome{attempted: p.attempted, failed: p.attempted - len(p.results)}, tr: tr}
	if p.failure != nil {
		fmt.Fprintf(log, "FAIL: %s: %v\n", w.name, p.failure)
		return out, nil
	}
	n := float64(len(p.results))
	ms["campaign.overhead_frac"] = p.campaignOverhead()
	ms["runtime.gc_cpu_frac"] = p.rt.gcCPUFrac()
	ms["runtime.allocs_per_trial"] = float64(p.rt.allocObjs) / n

	rs := campaign.SortedResults(p.results)
	for i := 0; i < nReplay; i++ {
		got, err := rp.run(su.trials[i])
		if err != nil {
			return traced{}, fmt.Errorf("%s: replay: %w", w.name, err)
		}
		if err := sameBytes(rs[i], got); err != nil {
			fmt.Fprintf(log, "FAIL: %s: replay of trial %d does not reproduce the campaign: %v\n", w.name, i, err)
			out.metrics = ms
			return out, nil
		}
	}
	fmt.Fprintf(log, "check: %s: %d replayed trials reproduce the campaign's results\n", w.name, nReplay)
	ms.merge(rp.metrics())
	// The replayed trials are the phase's first ones, so each traced
	// time has its untraced twin.
	var tracedSum, untracedSum float64
	for i, t := range rp.tracedSecs() {
		tracedSum += t
		untracedSum += rs[i].Wall
	}
	ms["trace.overhead_frac"] = tracedSum/untracedSum - 1

	if sr != nil {
		// Training hyper-parameters as the campaign resolves them for the
		// workload's (single) mitigation.
		mit := sr.d.Mitigations[0]
		lr := mit.EffectiveLR()
		if lr == 0 {
			lr = 0.01
		}
		var tm metricSet
		tr.do("profile.train", -1, func() {
			tm, err = profileTraining(sr.deps, mit.EffectiveKind() == "falvolt", 16, lr, 5, s.EffectiveSeed())
		})
		if err != nil {
			return traced{}, err
		}
		ms.merge(tm)
	}
	out.correct = true
	out.metrics = ms
	return out, nil
}

// enumerate resolves a site sweep's sampled site universe with the
// public calls the campaign builder makes (faults.EnumerateSites, then
// faults.SampleSites).
func enumerate(d spec.SiteSweepSpec, seed int64) ([]faults.Site, error) {
	var pols []faults.Polarity
	switch d.Pols {
	case "sa0":
		pols = []faults.Polarity{faults.StuckAt0}
	case "sa1":
		pols = []faults.Polarity{faults.StuckAt1}
	}
	sites, err := faults.EnumerateSites(d.Array, d.Array, d.Bits, pols)
	if err != nil {
		return nil, err
	}
	if d.Sample > 0 && d.Sample < len(sites) {
		return faults.SampleSites(sites, d.Sample, seed+3)
	}
	return sites, nil
}

// sameSites checks that the enumerated sites are the campaign's trial
// plan, in order.
func sameSites(sites []faults.Site, trials []campaign.Trial) error {
	if len(sites) != len(trials) {
		return fmt.Errorf("enumerated %d sites, campaign planned %d trials", len(sites), len(trials))
	}
	for i, st := range sites {
		tg := trials[i].Tags
		if tg["row"] != strconv.Itoa(st.Row) || tg["col"] != strconv.Itoa(st.Col) ||
			tg["bit"] != strconv.Itoa(int(st.Bit)) || tg["pol"] != st.Pol.String() {
			return fmt.Errorf("site %d is %+v, campaign trial tags %v", i, st, tg)
		}
	}
	return nil
}
