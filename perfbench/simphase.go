package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/sim"
	"github.com/coach-oss/coach/internal/trace"
)

// setup is one set-up of a workload: the generated trace, the trained
// long-term model and the fleet, with the time each took.
type setup struct {
	spec   *scenario.Spec
	tr     *trace.Trace
	model  *predict.LongTerm
	fleet  *cluster.Fleet
	cfg    sim.Config
	genS   float64
	trainS float64
	totalS float64
}

// buildSetup generates the trace, trains the model and builds the fleet,
// timing each call from outside.
func buildSetup(w workload, seed int64, tc *tracer) (*setup, error) {
	sp, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	root := tc.open("setup", -1, -1)
	defer tc.close(root)
	s := &setup{spec: sp}
	t0 := time.Now()
	if s.tr, err = trace.GenerateScenario(sp); err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	t1 := time.Now()
	tc.record("trace.GenerateScenario", t0, t1, root, -1)
	s.cfg = w.simConfig(s.tr.Horizon / 2)
	lt := s.cfg.LongTerm
	lt.Windows = s.cfg.Windows
	lt.Percentile = s.cfg.Percentile
	if s.model, err = predict.TrainLongTerm(s.tr, s.cfg.TrainUpTo, lt); err != nil {
		return nil, fmt.Errorf("train model: %w", err)
	}
	t2 := time.Now()
	tc.record("predict.TrainLongTerm", t1, t2, root, -1)
	s.fleet = cluster.NewFleet(cluster.DefaultClusters(w.serversPer))
	t3 := time.Now()
	tc.record("cluster.NewFleet", t2, t3, root, -1)
	s.genS, s.trainS, s.totalS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t0).Seconds()

	s.cfg.Model = s.model
	s.cfg.Workers = runtime.NumCPU()
	if w.faults {
		s.cfg.Scenario = sp
	}
	return s, nil
}

// simRun is one timed sim.Run with the runtime counters around it.
type simRun struct {
	seconds  float64
	cpuS     float64 // user+sys CPU of the process; excludes steal
	allocMB  float64
	gcCycles float64
	gcPause  float64 // ms
	digest   string
	res      *sim.Result
}

// timedRun runs sim.Run once after a forced collection, so the garbage
// of earlier work is not charged to it.
func timedRun(s *setup, cfg sim.Config, tc *tracer, name string) (simRun, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := cpuTime()
	t0 := time.Now()
	res, err := sim.Run(s.tr, s.fleet, cfg)
	t1 := time.Now()
	c1 := cpuTime()
	if err != nil {
		return simRun{}, fmt.Errorf("sim.Run: %w", err)
	}
	runtime.ReadMemStats(&after)
	tc.record(name, t0, t1, -1, -1)
	d, err := digest(res)
	if err != nil {
		return simRun{}, err
	}
	return simRun{
		seconds:  t1.Sub(t0).Seconds(),
		cpuS:     c1 - c0,
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcCycles: float64(after.NumGC - before.NumGC),
		gcPause:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		digest:   d,
		res:      res,
	}, nil
}

// cpuTime is the process's user+system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// digest is the SHA-256 of the gob-encoded Result.
func digest(res *sim.Result) (string, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// simPhase repeats sim.Run until budget is spent (at least minRuns,
// at most maxRuns) and checks every repetition returns the same Result.
func simPhase(s *setup, budget time.Duration, tc *tracer) ([]simRun, error) {
	const minRuns, maxRuns = 5, 25
	var runs []simRun
	start := time.Now()
	for len(runs) < minRuns || (len(runs) < maxRuns && time.Since(start) < budget) {
		r, err := timedRun(s, s.cfg, tc, "sim.Run")
		if err != nil {
			return nil, err
		}
		if len(runs) > 0 && r.digest != runs[0].digest {
			return nil, fmt.Errorf("check failed: sim.Run repetition %d digest %s differs from %s",
				len(runs), r.digest, runs[0].digest)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func field(runs []simRun, f func(simRun) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}

// checkSimResult applies the workload's output checks to a Result.
func checkSimResult(w workload, res *sim.Result) error {
	if res.Placed == 0 {
		return fmt.Errorf("check failed: sim.Run placed no VMs")
	}
	if !w.faults {
		return nil
	}
	f, dp := res.Faults, res.DataPlane
	switch {
	case f == nil || f.Crashes == 0:
		return fmt.Errorf("check failed: no crash fired")
	case f.LostVMs != 0:
		return fmt.Errorf("check failed: %d VMs lost to crashes", f.LostVMs)
	case dp == nil || dp.CrossShardMigrations == 0:
		return fmt.Errorf("check failed: no cross-shard migration")
	}
	return nil
}

// replayEvent is one arrival or departure in sim.Run's per-shard order.
type replayEvent struct {
	sample  int
	arrival bool
	vm      *trace.VM
}

// shardEvents routes the evaluation period's arrivals and departures to
// shards and orders them as sim.Run replays them: by sample, departures
// before arrivals, trace order otherwise.
func shardEvents(tr *trace.Trace, trainUpTo, shards int) [][]replayEvent {
	out := make([][]replayEvent, shards)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.End <= trainUpTo {
			continue
		}
		at := vm.Start
		if at < trainUpTo {
			at = trainUpTo
		}
		c := ((vm.Cluster % shards) + shards) % shards
		out[c] = append(out[c], replayEvent{at, true, vm}, replayEvent{vm.End, false, vm})
	}
	for _, evs := range out {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].sample != evs[j].sample {
				return evs[i].sample < evs[j].sample
			}
			return !evs[i].arrival && evs[j].arrival
		})
	}
	return out
}

// layerReplay is the outside-in timing of the predictor and the scheduler:
// each shard's arrivals and departures replayed through the public
// Predict / BuildCVM / Place / Remove calls.
type layerReplay struct {
	predictUs []float64
	forest    int
	placeUs   []float64
	removeUs  []float64
	rejected  int
	placed    int
}

func replayLayers(s *setup, tc *tracer) (*layerReplay, error) {
	root := tc.open("replay.layers", -1, -1)
	defer tc.close(root)
	lr := &layerReplay{}
	groups := s.fleet.Shards()
	for si, evs := range shardEvents(s.tr, s.cfg.TrainUpTo, len(groups)) {
		var sched *scheduler.Scheduler
		if len(groups[si]) > 0 {
			var err error
			if sched, err = scheduler.NewOverServers(groups[si], s.cfg.Windows); err != nil {
				return nil, err
			}
		}
		placed := map[int]bool{}
		for _, ev := range evs {
			if ev.sample >= s.tr.Horizon {
				break
			}
			id := int64(ev.vm.ID)
			if !ev.arrival {
				if placed[ev.vm.ID] {
					t0 := time.Now()
					sched.Remove(ev.vm.ID)
					t1 := time.Now()
					tc.record("scheduler.Remove", t0, t1, root, id)
					lr.removeUs = append(lr.removeUs, us(t1.Sub(t0)))
					delete(placed, ev.vm.ID)
				}
				continue
			}
			var pred coachvm.Prediction
			ok := false
			if s.model != nil {
				t0 := time.Now()
				pred, ok = s.model.Predict(s.tr, ev.vm)
				t1 := time.Now()
				tc.record("predict.Predict", t0, t1, root, id)
				lr.predictUs = append(lr.predictUs, us(t1.Sub(t0)))
				if ok {
					lr.forest++
				}
			}
			cvm, err := scheduler.BuildCVM(s.cfg.Policy, ev.vm.ID, ev.vm.Alloc, pred, ok, s.cfg.Windows)
			if err != nil {
				return nil, err
			}
			if sched == nil {
				lr.rejected++
				continue
			}
			t0 := time.Now()
			_, fits := sched.Place(cvm)
			t1 := time.Now()
			tc.record("scheduler.Place", t0, t1, root, id)
			lr.placeUs = append(lr.placeUs, us(t1.Sub(t0)))
			if !fits {
				lr.rejected++
				continue
			}
			lr.placed++
			placed[ev.vm.ID] = true
		}
	}
	return lr, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// simLayers measures the simulator's per-layer metrics for the traced run.
func simLayers(w workload, s *setup, runs []simRun, rep *report, tc *tracer) error {
	lr, err := replayLayers(s, tc)
	if err != nil {
		return err
	}
	res := runs[0].res
	if !w.dataPlane && !w.faults && lr.placed != res.Placed {
		return fmt.Errorf("check failed: outside-in scheduler replay placed %d VMs, sim.Run placed %d",
			lr.placed, res.Placed)
	}
	calls := len(lr.predictUs)
	rep.set("predict.calls", float64(calls), "count")
	rep.set("predict.forest_frac", safeDiv(float64(lr.forest), float64(calls)), "ratio")
	setTail(rep, "predict.call_us_p50", "predict.call_us_p99", lr.predictUs, "us")
	predictBusy := sum(lr.predictUs) / 1e6
	rep.set("predict.busy_s", predictBusy, "s")
	rep.set("scheduler.place_calls", float64(len(lr.placeUs)), "count")
	setTail(rep, "scheduler.place_us_p50", "scheduler.place_us_p99", lr.placeUs, "us")
	placeBusy := sum(lr.placeUs) / 1e6
	rep.set("scheduler.place_busy_s", placeBusy, "s")
	rep.set("scheduler.remove_busy_s", sum(lr.removeUs)/1e6, "s")
	rep.set("scheduler.reject_frac", safeDiv(float64(lr.rejected), float64(lr.placed+lr.rejected)), "ratio")

	// The visit counter costs an atomic add per shard tick, so it rides
	// on a run of its own: the traced sim.Run.
	var visits int64
	traced := s.cfg
	traced.VisitCounter = &visits
	tr, err := timedRun(s, traced, tc, "sim.Run.traced")
	if err != nil {
		return err
	}
	if tr.digest != runs[0].digest {
		return fmt.Errorf("check failed: traced sim.Run digest differs")
	}
	rep.set("sim.visits", float64(visits), "count")
	simRunS := median(field(runs, func(r simRun) float64 { return r.seconds }))
	rep.set("trace.overhead_sim_run_s", tr.seconds-simRunS, "s")

	serialCfg := s.cfg
	serialCfg.Workers = 1
	serial, err := timedRun(s, serialCfg, tc, "sim.Run.serial")
	if err != nil {
		return err
	}
	if serial.digest != runs[0].digest {
		return fmt.Errorf("check failed: sim.Run with Workers=1 digest differs")
	}
	rep.set("sim.run_serial_s", serial.seconds, "s")
	rep.set("sim.residual_s", serial.seconds-predictBusy-placeBusy, "s")
	rep.set("sim.gc_cycles", median(field(runs, func(r simRun) float64 { return r.gcCycles })), "count")
	rep.set("sim.gc_pause_ms", median(field(runs, func(r simRun) float64 { return r.gcPause })), "ms")

	dataplaneS := 0.0
	if w.dataPlane {
		off := s.cfg
		off.DataPlane = false
		off.CrossShardMigration = false
		r, err := timedRun(s, off, tc, "sim.Run.dataplane_off")
		if err != nil {
			return err
		}
		dataplaneS = simRunS - r.seconds
	}
	rep.set("core.dataplane_s", dataplaneS, "s")
	var xshard, failedMig int
	var migGB, trimGB, hardGB float64
	if dp := res.DataPlane; dp != nil {
		xshard, failedMig = dp.CrossShardMigrations, dp.FailedMigrations
		migGB, trimGB, hardGB = dp.Totals.MigratedGB, dp.Totals.TrimmedGB, dp.Totals.HardFaultGB
	}
	rep.set("core.migrations_cross_shard", float64(xshard), "count")
	rep.set("core.migrations_failed", float64(failedMig), "count")
	rep.set("core.migrated_gb", migGB, "GB")
	rep.set("agent.trimmed_gb", trimGB, "GB")
	rep.set("memsim.hard_fault_gb", hardGB, "GB")
	var crashes, evicted, lost int
	if f := res.Faults; f != nil {
		crashes, evicted, lost = f.Crashes, f.EvictedVMs, f.LostVMs
	}
	rep.set("fault.crashes", float64(crashes), "count")
	rep.set("fault.evicted_vms", float64(evicted), "count")
	rep.set("fault.lost_vms", float64(lost), "count")
	return nil
}

// setTail records the median and p99 of xs under the two names, with
// their sample count. When fewer than ten samples lie beyond the p99, the
// note names the highest percentile that has them.
func setTail(rep *report, p50Name, p99Name string, xs []float64, unit string) {
	s := sortedCopy(xs)
	p50, _ := percentile(s, 50)
	rep.set(p50Name, p50, unit)
	rep.note(p50Name, "n=%d", len(s))
	p99, ok := percentile(s, 99)
	rep.set(p99Name, p99, unit)
	if p, _, _, _ := highestPercentile(s); !ok {
		rep.note(p99Name, "n=%d, under 10 samples beyond p99 (highest supported p%g)", len(s), p)
	} else {
		rep.note(p99Name, "n=%d", len(s))
	}
}
