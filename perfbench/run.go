package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/spec"
	"falvolt/internal/tensor"
)

// setup is one construction of a workload along the path users run:
// spec.Build, the campaign's trial plan and its lane-0 worker (for the
// salvage kind the worker build trains the shared baseline).
type setup struct {
	cam    campaign.Campaign
	worker campaign.Worker
	trials []campaign.Trial
	secs   float64
}

func setUp(s *spec.Spec) (setup, error) {
	runtime.GC() // time from a settled heap
	start := time.Now()
	b, err := spec.Build(s, spec.BuildOpts{})
	if err != nil {
		return setup{}, fmt.Errorf("spec.Build: %w", err)
	}
	trials, err := b.Campaign.Trials()
	if err != nil {
		return setup{}, fmt.Errorf("campaign trials: %w", err)
	}
	w, err := b.Campaign.NewWorker(0)
	if err != nil {
		return setup{}, fmt.Errorf("campaign worker: %w", err)
	}
	return setup{cam: b.Campaign, worker: w, trials: trials, secs: time.Since(start).Seconds()}, nil
}

// prebuilt hands PoolRunner the worker set-up already built, so the
// timed phase measures trials rather than a second worker construction.
type prebuilt struct {
	campaign.Campaign
	w campaign.Worker
}

// NewWorker implements campaign.Campaign for the single serial lane.
func (p prebuilt) NewWorker(lane int) (campaign.Worker, error) {
	if lane != 0 {
		return nil, fmt.Errorf("prebuilt campaign has one lane, got lane %d", lane)
	}
	return p.w, nil
}

// phase is what one closed-loop run of trials measured.
type phase struct {
	results   []campaign.Result
	attempted int
	failure   error // the trial error that stopped the run, if any
	wall      float64
	cpu       float64         // process user+sys seconds
	allocB    uint64          // MemStats.TotalAlloc delta
	rt        runtimeCounters // delta over the phase
}

// runtimeCounters are runtime/metrics figures. The CPU classes are the
// runtime's own estimates, comparable only with each other, and are
// updated at the end of each GC cycle.
type runtimeCounters struct {
	gcCPU     float64 // GC CPU seconds, idle-priority mark work excluded
	busyCPU   float64 // CPU seconds not idle
	allocObjs uint64  // heap allocations
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

func readRuntime() runtimeCounters {
	metrics.Read(rtSamples)
	f := func(i int) float64 { return rtSamples[i].Value.Float64() }
	return runtimeCounters{
		gcCPU:     f(0) - f(1),
		busyCPU:   f(2) - f(3),
		allocObjs: rtSamples[4].Value.Uint64(),
	}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.gcCPU - o.gcCPU, c.busyCPU - o.busyCPU, c.allocObjs - o.allocObjs}
}

// gcCPUFrac is the share of the busy CPU time the GC took.
func (c runtimeCounters) gcCPUFrac() float64 { return c.gcCPU / c.busyCPU }

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runPhase runs the set-up's trials in plan order on one serial
// PoolRunner lane until seconds have passed and at least minTrials have
// completed. Every dispatched trial completes: the runner is cancelled
// from the sink, between trials. The phase starts from a settled heap,
// and a GC cycle on either side of it brings the runtime's CPU classes
// up to date.
func runPhase(su setup, seconds float64, minTrials int) phase {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var p phase
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	rt0 := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	sink := func(r campaign.Result) error {
		p.results = append(p.results, r)
		if len(p.results) >= minTrials && time.Since(start).Seconds() >= seconds {
			cancel()
		}
		return nil
	}
	err := campaign.PoolRunner{Engine: tensor.Serial()}.Run(ctx, prebuilt{su.cam, su.worker}, su.trials, sink)
	p.wall = time.Since(start).Seconds()
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	runtime.GC()
	p.rt = readRuntime().sub(rt0)
	p.attempted = len(p.results)
	if err != nil && !(errors.Is(err, context.Canceled) && ctx.Err() != nil) {
		p.failure = err
		p.attempted++ // the trial that failed
	}
	if p.failure == nil && len(p.results) < minTrials {
		p.failure = fmt.Errorf("plan of %d trials ran out before %d completed", len(su.trials), minTrials)
	}
	return p
}

func (p phase) walls() []float64 {
	w := make([]float64, len(p.results))
	for i, r := range p.results {
		w[i] = r.Wall
	}
	return w
}

// campaignOverhead is the share of the phase's wall time not spent
// inside trials: dispatch, sinking and scheduling.
func (p phase) campaignOverhead() float64 {
	var sum float64
	for _, r := range p.results {
		sum += r.Wall
	}
	return 1 - sum/p.wall
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// hostRefMS times a fixed single-threaded loop of dependent
// multiply-adds (median of five samples). It does no work of the
// program, so a change in it between runs is a change in the host's
// speed, not in the program's.
func hostRefMS() float64 {
	const n = 10_000_000
	samples := make([]float64, 5)
	x := 1.0
	for i := range samples {
		start := time.Now()
		for j := 0; j < n; j++ {
			x = x*0.999999 + 1e-7
		}
		samples[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	hostRefSink = x
	return median(samples)
}

// hostRefSink keeps the reference loop's result alive.
var hostRefSink float64

// outcome is a run's result line before rendering.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   metricSet
}

// timedRun is the untraced run: set the workload up setUps times, run
// its trials closed-loop for the given seconds on the last set-up,
// check the outputs and report the end-to-end metrics. Only the last
// set-up stays alive, so the timed phase runs beside one of them.
func timedRun(w workload, seed int64, seconds float64, log io.Writer) (outcome, error) {
	s := w.spec(seed)
	refBefore := hostRefMS()
	var su setup
	var setupSecs []float64
	for i := 0; i < setUps; i++ {
		su = setup{} // drop the previous set-up before timing the next
		var err error
		if su, err = setUp(s); err != nil {
			return outcome{}, err
		}
		setupSecs = append(setupSecs, su.secs)
	}
	p := runPhase(su, seconds, w.digestTrials)
	refAfter := hostRefMS()
	// Read before the output check, which may build a set-up of its own.
	rss, err := peakRSSMB()
	if err != nil {
		return outcome{}, err
	}
	out := outcome{attempted: p.attempted, failed: p.attempted - len(p.results)}
	if p.failure != nil {
		fmt.Fprintf(log, "FAIL: %v\n", p.failure)
	}
	checkErr := p.failure
	if checkErr == nil {
		checkErr = checkOutputs(w, s, seed, p.results, log)
		if checkErr != nil {
			fmt.Fprintf(log, "FAIL: %v\n", checkErr)
		}
	}
	out.correct = checkErr == nil
	n := float64(len(p.results))
	out.metrics = metricSet{
		"setup_s":            median(setupSecs),
		"trials_per_s":       n / p.wall,
		"trial_p50_s":        median(p.walls()),
		"cpu_s_per_trial":    p.cpu / n,
		"alloc_mb_per_trial": float64(p.allocB) / 1e6 / n,
		"peak_rss_mb":        rss,
	}

	fmt.Fprintf(log, "workload %s seed %d: %d trials in %.2fs, set-ups %v\n",
		w.name, seed, len(p.results), p.wall, setupSecs)
	for _, d := range endToEnd {
		fmt.Fprintf(log, "  %-22s %14.6g %s\n", d.name, out.metrics[d.name], d.unit)
	}
	if pct, v, ok := tail(p.walls()); ok {
		fmt.Fprintf(log, "  %-22s %14.6g s (p%g of n=%d)\n", "trial_tail_s", v, pct, len(p.results))
	} else {
		fmt.Fprintf(log, "  %-22s omitted: n=%d leaves no percentile above p50 with %d trials beyond it\n",
			"trial_tail_s", len(p.results), minBeyondTail)
	}
	fmt.Fprintf(log, "  %-22s %14.6g (%d of %d)\n", "failed_frac",
		float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	fmt.Fprintf(log, "  %-22s %14.6g\n", "campaign.overhead_frac", p.campaignOverhead())
	fmt.Fprintf(log, "  %-22s %14.6g ms before set-up, %.6g ms after the timed phase\n", hostRefName, refBefore, refAfter)
	return out, nil
}
