package main

import (
	"fmt"
	"strconv"
	"time"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/experiments"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/sim"
)

// workload is one input the benchmark measures twice: offline, as
// sim.Run over the generated trace, and online, as a coachd child process
// serving the same trace over HTTP. The name says which path the input
// stresses; both paths are measured on every workload so every workload
// reports every end-to-end metric.
type workload struct {
	name   string
	preset string
	// scale sets the population (coachd -scale); the simulator replays
	// the same trace.
	scale experiments.Scale
	// days overrides the preset's horizon (0 keeps it).
	days int
	// serversPer sizes cluster.DefaultClusters (coachd -servers).
	serversPer int
	// Data plane (both paths): mitigation, pool fraction, cross-shard
	// exchange, and coachd's tick interval and admission pressure bar.
	dataPlane     bool
	mitigation    agent.Policy
	poolFrac      float64
	crossShard    bool
	dpInterval    time.Duration
	admitPressure float64
	// faults hands the spec to sim.Config.Scenario so its fault schedule
	// fires (coachd compiles the same schedule from the spec file).
	faults bool
	// rate is the reference open-loop rate in requests per second.
	rate float64
}

// workloads are the benchmark's inputs, by name.
var workloads = map[string]workload{
	// Every arrival pays a forest prediction and a best-fit scan of a
	// fleet ~15x larger than the servers actually used.
	"sim-sparse": {
		name: "sim-sparse", preset: "sparse-churn", scale: experiments.ScaleFull,
		serversPer: 420, rate: 400,
	},
	// The memory data plane, agents, live migration with cross-shard
	// exchange and the crash schedule dominate; placement scans a small
	// fleet. Pools shrink to 2% so agents really trim and migrate.
	"sim-chaos": {
		name: "sim-chaos", preset: "chaos", scale: experiments.ScaleMedium, days: 10,
		serversPer: 40, dataPlane: true, mitigation: agent.PolicyMigrate,
		poolFrac: 0.02, crossShard: true, dpInterval: 100 * time.Millisecond,
		faults: true, rate: 400,
	},
	// coachd's default batching with pressure-aware admission on the
	// dense capacity mix: the HTTP, batcher and what-if scoring path.
	"serve-replay": {
		name: "serve-replay", preset: "capacity", scale: experiments.ScaleFull,
		serversPer: 8, dataPlane: true, mitigation: agent.PolicyTrim,
		dpInterval: 100 * time.Millisecond, admitPressure: 0.95, rate: 400,
	},
}

// spec returns the workload's scenario for a benchmark seed. Seed 0 is the
// preset itself; other seeds shift the preset's generator seed.
func (w workload) spec(seed int64) (*scenario.Spec, error) {
	sp, err := scenario.Preset(w.preset)
	if err != nil {
		return nil, err
	}
	sp = w.scale.ScenarioSpec(sp)
	if w.days > 0 {
		sp.Days = w.days
	}
	sp.Seed += seed
	return sp, sp.Validate()
}

// simConfig is the simulator configuration for the workload, without the
// trained model, worker count and scenario, which the caller sets.
func (w workload) simConfig(trainUpTo int) sim.Config {
	cfg := sim.ConfigForPolicy(scheduler.PolicyCoach)
	cfg.TrainUpTo = trainUpTo
	if w.dataPlane {
		cfg.DataPlane = true
		cfg.MitigationPolicy = w.mitigation
		cfg.MitigationMode = agent.Reactive
		cfg.DataPlanePoolFrac = w.poolFrac
		cfg.DataPlaneUnallocFrac = w.poolFrac
		cfg.CrossShardMigration = w.crossShard
	}
	return cfg
}

// serveConfig mirrors the configuration cmd/coachd builds from
// coachdArgs, for the in-process replay of the traced run. The fault
// schedule is left out: it fires on data-plane ticks, which the
// in-process replay does not drive.
func (w workload) serveConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Batch = serve.BatchConfig{MaxBatch: 64}
	if w.dataPlane {
		cfg.DataPlane = true
		cfg.MitigationPolicy = w.mitigation
		cfg.MitigationMode = agent.Reactive
		cfg.DataPlanePoolFrac = w.poolFrac
		cfg.DataPlaneUnallocFrac = w.poolFrac
		cfg.CrossShardMigration = w.crossShard
		cfg.AdmitPressureFrac = w.admitPressure
	}
	return cfg
}

// coachdArgs are the coachd flags serving the workload's spec file.
func (w workload) coachdArgs(addr, specPath string) []string {
	args := []string{"-addr", addr, "-scale", w.scale.String(), "-scenario", specPath,
		"-servers", strconv.Itoa(w.serversPer), "-policy", "coach"}
	if w.dataPlane {
		args = append(args, "-data-plane", "-mitigation", w.mitigation.String(),
			"-mitigation-mode", agent.Reactive.String(),
			"-dp-interval", w.dpInterval.String(),
			"-dp-pool-frac", strconv.FormatFloat(w.poolFrac, 'g', -1, 64),
			"-cross-shard="+strconv.FormatBool(w.crossShard),
			"-admit-pressure", strconv.FormatFloat(w.admitPressure, 'g', -1, 64))
	}
	return args
}

func lookupWorkload(name string) (workload, error) {
	w, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("unknown workload %q (sim-sparse, sim-chaos, serve-replay)", name)
	}
	return w, nil
}
