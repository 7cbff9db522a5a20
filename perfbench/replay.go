package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// The traced replay re-executes a campaign's trials through the public
// functions of each layer, in the order the campaign worker calls them,
// with a span around each call. Each replayed trial must reproduce the
// campaign's own Result byte for byte; that is what shows the spans time
// the same program the untraced run measures.

// salvageReplay mirrors the salvage campaign worker (core/salvage.go)
// on its own baseline, built by core.SyntheticSalvageBuild.
type salvageReplay struct {
	d    spec.SalvageCampaignSpec // defaulted
	deps core.YieldDeps
	tr   *tracer

	trials                  int
	faultyPEs               float64
	stats                   systolic.Stats // summed over trials
	applyAccs, salvagedAccs uint64
	mac                     float64
	inferNS                 map[string]float64
	inferAccs               uint64
	traced                  []float64 // per-trial traced seconds
}

func addStats(a *systolic.Stats, b systolic.Stats) {
	a.Accumulations += b.Accumulations
	a.BypassedSteps += b.BypassedSteps
	a.TilePasses += b.TilePasses
	a.MACCycles += b.MACCycles
}

// run replays one trial, then profiles inference by layer kind on the
// deployment the mitigation left behind.
func (r *salvageReplay) run(t campaign.Trial) (campaign.Result, error) {
	d := r.d
	rate, err := strconv.ParseFloat(t.Tags["rate"], 64)
	if err != nil {
		return campaign.Result{}, fmt.Errorf("trial %d: bad rate tag %q", t.ID, t.Tags["rate"])
	}
	mi, err := strconv.Atoi(t.Tags["miti"])
	if err != nil || mi < 0 || mi >= len(d.Mitigations) {
		return campaign.Result{}, fmt.Errorf("trial %d: bad mitigation tag %q", t.ID, t.Tags["miti"])
	}
	ms := d.Mitigations[mi]
	fmodel, err := faults.ModelByName(t.Tags["model"])
	if err != nil {
		return campaign.Result{}, err
	}
	net, arr, tr := r.deps.Model.Net, r.deps.Arr, r.tr

	trialSpan := tr.begin("trial", t.ID)
	tr.do("snn.load_state", t.ID, func() {
		net.Undeploy()
		err = net.LoadState(r.deps.Baseline)
		arr.ClearFaults()
		arr.SetBypass(false)
	})
	if err != nil {
		return campaign.Result{}, err
	}
	tr.do("faults.inject", t.ID, func() { err = fmodel.Inject(arr, rate, t.Seed) })
	if err != nil {
		return campaign.Result{}, fmt.Errorf("trial %d: inject: %w", t.ID, err)
	}
	r.faultyPEs += float64(arr.FaultMap().NumFaultyPEs())

	var rawAcc float64
	tr.do("snn.eval_raw", t.ID, func() {
		arr.ResetStats()
		net.Deploy(arr)
		rawAcc = snn.EvaluateWith(nil, net, r.deps.Test, d.Batch)
		net.Undeploy()
	})
	addStats(&r.stats, arr.Stats())

	// Mitigation options exactly as the campaign worker resolves them.
	epochs := ms.EffectiveEpochs()
	if epochs == 0 {
		epochs = d.Epochs
	}
	lr := ms.EffectiveLR()
	if lr == 0 {
		lr = 0.01
	}
	mt := ms.TrainingOrZero()
	batch, clip := mt.Batch, mt.ClipNorm
	if batch == 0 {
		batch = 16
	}
	if clip == 0 {
		clip = 5
	}
	var out *mitigation.Outcome
	tr.do("mitigation.apply", t.ID, func() {
		arr.ResetStats()
		var mit mitigation.Mitigation
		mit, err = mitigation.New(ms.EffectiveKind(), mitigation.Options{
			Train: r.deps.Train, Test: r.deps.Test,
			Epochs: epochs, BatchSize: batch, LR: lr, ClipNorm: clip,
			FixedVth:  ms.Vth,
			Rng:       rand.New(rand.NewSource(t.Seed + 1)),
			BypassBit: ms.BypassBit, Replicas: mt.Replicas, MicroBatch: mt.MicroBatch,
		})
		if err == nil {
			out, err = mit.Apply(r.deps.Model, arr, arr.FaultMap())
		}
	})
	if err != nil {
		return campaign.Result{}, fmt.Errorf("trial %d: mitigation: %w", t.ID, err)
	}
	applied := arr.Stats()
	addStats(&r.stats, applied)
	r.applyAccs += applied.Accumulations

	var acc float64
	tr.do("snn.eval_salvaged", t.ID, func() {
		arr.ResetStats()
		acc = snn.EvaluateWith(nil, net, r.deps.Test, d.Batch)
	})
	salvaged := arr.Stats()
	addStats(&r.stats, salvaged)
	r.salvagedAccs += salvaged.Accumulations
	perInf := 0.0
	if n := len(r.deps.Test); n > 0 {
		perInf = float64(salvaged.MACCycles) / float64(n)
	}
	r.mac += perInf
	tr.end(trialSpan)
	traced := tr.spans[trialSpan].dur()

	// Per-kind inference profile of the salvaged deployment, outside the
	// trial span; it must agree with EvaluateWith.
	var profAcc float64
	var byKind map[string]time.Duration
	tr.do("profile.infer", t.ID, func() {
		arr.ResetStats()
		byKind, profAcc = profileInference(net, r.deps.Test, d.Batch)
	})
	if profAcc != acc {
		return campaign.Result{}, fmt.Errorf("trial %d: per-layer inference accuracy %v, EvaluateWith %v", t.ID, profAcc, acc)
	}
	for k, v := range byKind {
		r.inferNS[k] += float64(v.Nanoseconds())
	}
	r.inferAccs += arr.Stats().Accumulations

	teardown := tr.begin("trial.teardown", t.ID)
	net.Undeploy()
	arr.ClearFaults()
	arr.SetBypass(false)
	tr.end(teardown)
	r.traced = append(r.traced, traced+tr.spans[teardown].dur())
	r.trials++

	return campaign.Result{
		TrialID: t.ID,
		Key:     t.Key,
		Metrics: map[string]float64{
			"raw":       rawAcc,
			"acc":       acc,
			"recovered": acc - rawAcc,
			"epochs":    float64(out.RetrainEpochs),
			"pruned":    out.PrunedFraction,
			"remapped":  float64(out.RemappedLayers),
			"bypassed":  float64(out.BypassedPEs),
			"clamped":   float64(out.ClampedLayers),
			"mac":       perInf,
		},
	}, nil
}

func (r *salvageReplay) metrics() metricSet {
	n := float64(r.trials)
	m := metricSet{
		"faults.faulty_pes":                 r.faultyPEs / n,
		"mitigation.eval_passes":            float64(r.applyAccs) / float64(r.salvagedAccs),
		"systolic.accumulations_per_trial":  float64(r.stats.Accumulations) / n,
		"systolic.bypassed_steps_per_trial": float64(r.stats.BypassedSteps) / n,
		"systolic.tile_passes_per_trial":    float64(r.stats.TilePasses) / n,
		"systolic.mac_cycles_per_inference": r.mac / n,
		"systolic.ns_per_acc":               (r.inferNS["conv"] + r.inferNS["linear"]) / float64(r.inferAccs),
	}
	for _, name := range []string{"snn.load_state", "faults.inject", "snn.eval_raw", "mitigation.apply", "snn.eval_salvaged"} {
		m[name+"_s"] = r.tr.total(name) / n
	}
	for _, k := range layerKinds {
		m["snn.infer."+k+".fwd_ms"] = r.inferNS[k] / 1e6 / n
	}
	return m
}

func (r *salvageReplay) tracedSecs() []float64 { return r.traced }

// layerKind groups a layer for the per-kind profiles.
func layerKind(l snn.Layer) string {
	switch l.(type) {
	case *snn.Conv2D:
		return "conv"
	case *snn.Linear:
		return "linear"
	case *snn.BatchNorm2D:
		return "bn"
	case *snn.PLIFNode:
		return "plif"
	case *snn.AvgPool2, *snn.MaxPool2:
		return "pool"
	}
	return "other"
}

// profileInference evaluates net on samples the way snn.EvaluateWith
// does on one lane (Network.Forward per batch), timing each layer's
// Forward by kind. It returns the accuracy for the caller to compare.
func profileInference(net *snn.Network, samples []snn.Sample, batch int) (map[string]time.Duration, float64) {
	eng := net.Engine()
	byKind := map[string]time.Duration{}
	correct := 0
	for start := 0; start < len(samples); start += batch {
		end := min(start+batch, len(samples))
		seq, labels := snn.MakeBatch(samples[start:end])
		net.ResetState()
		var rate *tensor.Tensor
		for t := 0; t < net.T; t++ {
			for _, g := range net.GEMMLayers() {
				if d := g.Deployment(); d != nil {
					d.Array.SetTimestep(t)
				}
			}
			x := seq.At(t)
			for _, l := range net.Layers {
				t0 := time.Now()
				x = l.Forward(x, false)
				byKind[layerKind(l)] += time.Since(t0)
			}
			if rate == nil {
				rate = x.Clone()
			} else {
				eng.AddInPlace(rate, x)
			}
		}
		eng.Scale(rate, 1/float32(net.T))
		for i, l := range labels {
			if rate.Argmax(i) == l {
				correct++
			}
		}
	}
	return byKind, float64(correct) / float64(len(samples))
}

// trainSteps is how many hand-driven training steps the profile times;
// their per-kind median is reported.
const trainSteps = 5

// profileTraining times one training step by layer kind (layer
// Forward(train) over T, the loss, layer Backward over T in reverse,
// as snn.Network.Forward/Backward run them), counts its allocations by
// kind in a separate step, and times one epoch of snn.Train. It works
// on a private copy of the baseline, so the replay model is untouched.
func profileTraining(deps core.YieldDeps, learnVth bool, batch int, lr, clip float64, seed int64) (metricSet, error) {
	m, err := deps.BuildModel()
	if err != nil {
		return nil, err
	}
	if err := m.Net.LoadState(deps.Baseline); err != nil {
		return nil, err
	}
	m.Net.SetLearnVth(learnVth)
	clone := m.Net.TrainingClone()
	for i, l := range clone.Layers {
		if d, ok := l.(*snn.Dropout); ok {
			d.SetRng(rand.New(rand.NewSource(seed + int64(i))))
		}
	}
	loss, err := snn.LossByName("")
	if err != nil {
		return nil, err
	}
	seq, labels := snn.MakeBatch(deps.Train[:min(batch, len(deps.Train))])
	target := snn.OneHot(labels, m.Spec.Classes)
	eng := clone.Engine()

	// step runs one forward/backward pass, calling around(kind, dir, f)
	// for every layer call.
	step := func(around func(kind, dir string, f func())) {
		clone.ResetState()
		for _, p := range clone.Params() {
			p.ZeroGrad()
		}
		var rate *tensor.Tensor
		for t := 0; t < clone.T; t++ {
			x := seq.At(t)
			for _, l := range clone.Layers {
				around(layerKind(l), "fwd", func() { x = l.Forward(x, true) })
			}
			if rate == nil {
				rate = x.Clone()
			} else {
				eng.AddInPlace(rate, x)
			}
		}
		eng.Scale(rate, 1/float32(clone.T))
		_, grad := loss.Loss(rate, target)
		perStep := grad.Clone()
		perStep.Scale(1 / float32(clone.T))
		for t := clone.T - 1; t >= 0; t-- {
			g := perStep
			for i := len(clone.Layers) - 1; i >= 0; i-- {
				l := clone.Layers[i]
				around(layerKind(l), "bwd", func() { g = l.Backward(g) })
			}
		}
	}

	samples := map[string][]float64{}
	for s := 0; s < trainSteps; s++ {
		sums := map[string]float64{}
		step(func(kind, dir string, f func()) {
			t0 := time.Now()
			f()
			sums[kind+"."+dir] += float64(time.Since(t0).Nanoseconds())
		})
		for _, k := range layerKinds {
			for _, dir := range []string{"fwd", "bwd"} {
				samples[k+"."+dir] = append(samples[k+"."+dir], sums[k+"."+dir])
			}
		}
	}
	allocs := map[string]float64{}
	var before, after runtime.MemStats
	step(func(kind, _ string, f func()) {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs[kind] += float64(after.Mallocs - before.Mallocs)
	})

	ms := metricSet{}
	for _, k := range layerKinds {
		ms["snn.train."+k+".fwd_ms"] = median(samples[k+".fwd"]) / 1e6
		ms["snn.train."+k+".bwd_ms"] = median(samples[k+".bwd"]) / 1e6
		ms["snn.train."+k+".allocs"] = allocs[k]
	}

	start := time.Now()
	if _, err := snn.Train(m.Net, deps.Train, snn.TrainConfig{
		Epochs: 1, BatchSize: batch, LR: lr, Classes: m.Spec.Classes, ClipNorm: clip,
		Rng: rand.New(rand.NewSource(seed)),
	}); err != nil {
		return nil, err
	}
	ms["snn.train_epoch_s"] = time.Since(start).Seconds()
	return ms, nil
}

// siteReplay mirrors the sitesweep campaign worker (core/sitesweep.go).
type siteReplay struct {
	d             spec.SiteSweepSpec // defaulted
	clean, faulty *systolic.Array
	wm            *systolic.Matrix
	x, yClean     *tensor.Tensor
	tr            *tracer

	trials   int
	forwards int
	accs     uint64
	traced   []float64
}

func newSiteReplay(d spec.SiteSweepSpec, seed int64, tr *tracer) (*siteReplay, error) {
	side := d.Array
	mk := func() (*systolic.Array, error) {
		return systolic.New(systolic.Config{
			Rows: side, Cols: side, Format: fixed.Q16x16, Saturate: true,
			Engine: tensor.Serial(),
		})
	}
	clean, err := mk()
	if err != nil {
		return nil, err
	}
	faulty, err := mk()
	if err != nil {
		return nil, err
	}
	k := side + side/2 + 1
	m := side + side/3 + 2
	rng := rand.New(rand.NewSource(seed))
	w := tensor.New(m, k)
	w.RandNormal(rng, 0.5)
	wm := systolic.QuantizeMatrix(w, fixed.Q16x16)
	x := tensor.New(d.Batch, k)
	xrng := rand.New(rand.NewSource(seed + 1))
	for i := range x.Data {
		if xrng.Float64() < d.Density {
			x.Data[i] = 1
		}
	}
	return &siteReplay{d: d, clean: clean, faulty: faulty, wm: wm, x: x,
		yClean: clean.Forward(x, wm, true), tr: tr}, nil
}

func (r *siteReplay) run(t campaign.Trial) (campaign.Result, error) {
	row, err1 := strconv.Atoi(t.Tags["row"])
	col, err2 := strconv.Atoi(t.Tags["col"])
	bit, err3 := strconv.Atoi(t.Tags["bit"])
	if err1 != nil || err2 != nil || err3 != nil {
		return campaign.Result{}, fmt.Errorf("trial %d has bad site tags %v", t.ID, t.Tags)
	}
	pol := faults.StuckAt0
	if t.Tags["pol"] == "sa1" {
		pol = faults.StuckAt1
	}
	tr := r.tr
	trialSpan := tr.begin("trial", t.ID)
	var fm *faults.Map
	var err error
	tr.do("faults.site_map", t.ID, func() {
		fm, err = faults.SiteMap(r.d.Array, r.d.Array, faults.Site{Row: row, Col: col, Bit: uint(bit), Pol: pol})
	})
	if err != nil {
		return campaign.Result{}, err
	}
	tr.do("systolic.clear", t.ID, r.faulty.ClearFaults)
	tr.do("systolic.inject", t.ID, func() { err = r.faulty.InjectFaults(fm) })
	if err != nil {
		return campaign.Result{}, err
	}
	acc0 := r.faulty.Stats().Accumulations
	var corrupt, total int
	var sumAbs, maxAbs float64
	for step := 0; step < r.d.Timesteps; step++ {
		var yf *tensor.Tensor
		tr.do("systolic.forward", t.ID, func() {
			r.faulty.SetTimestep(step)
			yf = r.faulty.Forward(r.x, r.wm, true)
		})
		for i := range yf.Data {
			d := math.Abs(float64(yf.Data[i]) - float64(r.yClean.Data[i]))
			total++
			if d != 0 {
				corrupt++
				sumAbs += d
				if d > maxAbs {
					maxAbs = d
				}
			}
		}
	}
	r.accs += r.faulty.Stats().Accumulations - acc0
	r.forwards += r.d.Timesteps
	tr.do("systolic.clear", t.ID, r.faulty.ClearFaults)
	tr.end(trialSpan)
	r.traced = append(r.traced, tr.spans[trialSpan].dur())
	r.trials++
	return campaign.Result{
		TrialID: t.ID,
		Key:     t.Key,
		Metrics: map[string]float64{
			"corrupt": float64(corrupt) / float64(total),
			"mae":     sumAbs / float64(total),
			"max":     maxAbs,
		},
	}, nil
}

func (r *siteReplay) tracedSecs() []float64 { return r.traced }

func (r *siteReplay) metrics() metricSet {
	n := float64(r.trials)
	return metricSet{
		"faults.site_map_s":                  r.tr.total("faults.site_map") / n,
		"systolic.inject_s":                  r.tr.total("systolic.inject") / n,
		"systolic.forward_s":                 r.tr.total("systolic.forward") / n,
		"systolic.clear_s":                   r.tr.total("systolic.clear") / n,
		"systolic.accumulations_per_forward": float64(r.accs) / float64(r.forwards),
	}
}
