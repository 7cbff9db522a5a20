package main

import (
	"fmt"

	"falvolt/internal/spec"
)

// workload is one benchmark input set: a campaign spec whose trials all
// do the same work and differ only in their seed-addressed fault
// instance, run closed-loop by one PoolRunner lane on the serial engine.
type workload struct {
	name string
	// spec builds the workload's campaign spec; the benchmark seed is
	// the spec seed.
	spec func(seed int64) *spec.Spec
	// digestTrials is the prefix of trials the recorded digest covers.
	// A run completes at least this many, however short --seconds is.
	digestTrials int
	// recheck is how many of the run's last trials are re-run on a
	// fresh worker when the seed has no recorded digest.
	recheck int
	// replay is how many trials a traced run replays; probe is how many
	// it replays when the workload only stands in for the layers
	// another workload's trials do not reach.
	replay, probe int
}

// setUps is how many times an untraced run builds its workload;
// setup_s is their median.
const setUps = 3

// planned trial counts: more than any run completes, so a run never
// exhausts its campaign. The site sample is part of the result identity
// (SampleSites draws from the whole universe), so it is fixed.
const (
	salvageRepeats = 2000
	siteSample     = 20000
)

func salvageSpec(seed int64, mit spec.MitigationSpec, rate float64) *spec.Spec {
	return &spec.Spec{
		Version: spec.Version,
		Kind:    "salvage",
		Seed:    seed,
		Salvage: &spec.SalvageCampaignSpec{
			Models:      []string{"stuckat"},
			Mitigations: []spec.MitigationSpec{mit},
			Rates:       []float64{rate},
			Repeats:     salvageRepeats,
			Array:       16,
		},
	}
}

var workloads = []workload{
	{
		name: "fap-infer",
		spec: func(seed int64) *spec.Spec {
			return salvageSpec(seed, spec.MitigationSpec{Kind: "fap"}, 0.1)
		},
		digestTrials: 4, recheck: 1, replay: 3, probe: 1,
	},
	{
		name: "falvolt-retrain",
		spec: func(seed int64) *spec.Spec {
			return salvageSpec(seed, spec.MitigationSpec{Kind: "falvolt", Epochs: 3}, 0.02)
		},
		digestTrials: 3, recheck: 1, replay: 2, probe: 1,
	},
	{
		name: "sitesweep",
		spec: func(seed int64) *spec.Spec {
			return &spec.Spec{
				Version: spec.Version,
				Kind:    "sitesweep",
				Seed:    seed,
				SiteSweep: &spec.SiteSweepSpec{
					Array: 256, Batch: 16, Timesteps: 4, Sample: siteSample,
				},
			}
		},
		digestTrials: 200, recheck: 20, replay: 200, probe: 50,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
