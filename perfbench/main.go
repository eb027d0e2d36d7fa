// Command perfbench is the repository's end-to-end benchmark. Each
// workload is one generated scenario measured on both of Coach's paths:
// offline, sim.Run over the trace (the simulator of §4.1), and online, a
// coachd child process answering the same trace's arrivals over loopback
// HTTP as an open loop. Every figure is taken from outside the program:
// the benchmark times its own calls into public functions and HTTP
// endpoints and reads the counters the modules already expose.
//
// Usage (after building coachd and this command, as run.sh does):
//
//	perfbench --workload sim-sparse|sim-chaos|serve-replay --seed N \
//	          --seconds S --trace 0|1 [--coachd PATH] [--out DIR]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
// runs the per-layer measurements, keeps spans in memory, writes them to
// --out at exit and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// Any failed output check exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/coach-oss/coach/internal/scenario"
)

// endToEnd are the metrics printed with --trace 0, perLayer those printed
// with --trace 1. BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"setup_s", "sim_cpu_s", "sim_alloc_mb", "serve_cpu_us", "serve_rss_mb"}
	perLayer = []string{
		"setup.wall_s", "trace.generate_s", "predict.train_s",
		"predict.calls", "predict.forest_frac", "predict.call_us_p50", "predict.call_us_p99", "predict.busy_s",
		"scheduler.place_calls", "scheduler.place_us_p50", "scheduler.place_us_p99",
		"scheduler.place_busy_s", "scheduler.remove_busy_s", "scheduler.reject_frac",
		"sim.run_wall_s", "sim.visits", "sim.run_serial_s", "sim.residual_s", "sim.gc_cycles", "sim.gc_pause_ms",
		"core.dataplane_s", "core.migrations_cross_shard", "core.migrations_failed", "core.migrated_gb",
		"agent.trimmed_gb", "memsim.hard_fault_gb", "fault.crashes", "fault.evicted_vms", "fault.lost_vms",
		"serve.spawn_ready_s", "serve.predict_us_p50", "serve.admit_us_p50", "serve.admit_us_p99", "serve.release_us_p50",
		"http.admit_p50_ms", "http.admit_p99_ms", "http.predict_p50_ms", "http.predict_p99_ms",
		"http.predict_overhead_us", "http.admit_overhead_us",
		"serve.batch_mean_size", "serve.admit_batch_mean_size", "serve.admit_conflict_replays",
		"serve.whatif_batches", "serve.whatif_candidates_per_batch", "serve.reject_frac", "serve.pressure_rejected",
		"serve.max_rate_rps", "serve.failed_frac",
		"loadgen.late_p99_ms", "loadgen.conn_wait_p99_ms",
		"trace.overhead_sim_run_s", "trace.overhead_admit_p50_ms",
	}
)

const (
	// setupRounds is how many times a run sets up; setup_s is the median.
	setupRounds = 3
	// minAdmits is the fewest admissions a run samples, so the p99 has
	// at least ten samples beyond it.
	minAdmits = 1200
	// latencyLimitMs bounds the p99 over all requests at a ladder rate
	// that counts as sustained.
	latencyLimitMs = 25.0
	// simShare is the part of --seconds the sim.Run repetitions take; the
	// reference replay passes take about as long again.
	simShare = 0.4
)

// ladder is the fixed rate ladder (requests per second) of the traced
// run; each rung replays the whole evaluation period once.
var ladder = []float64{200, 400, 800, 1600, 3200, 6400}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	coachd   string
	out      string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: sim-sparse, sim-chaos or serve-replay")
	flag.Int64Var(&o.seed, "seed", 0, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurements")
	flag.StringVar(&o.coachd, "coachd", filepath.Join(".bench_build", "bin", "coachd"), "coachd binary")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for spans and coachd logs")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	os.Exit(run(o))
}

func run(o options) int {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("perfbench %s: %s\n", w.name, hostStamp(o.seed))
	var tc *tracer
	if o.trace {
		tc = newTracer()
	}
	rep := newReport()
	b := &bench{w: w, o: o, rep: rep, tc: tc}
	runErr := b.measure()
	if tc != nil {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := tc.write(path); err != nil && runErr == nil {
			runErr = err
		} else if err == nil {
			fmt.Printf("spans: %d written to %s\n", len(tc.spans), path)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		return 1
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	metrics, err := rep.subset(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(names)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench is one run of one workload.
type bench struct {
	w   workload
	o   options
	rep *report
	tc  *tracer
	// attempted and failed count timed operations: sim.Run calls and the
	// HTTP requests of the reference passes.
	attempted, failed int
}

func (b *bench) measure() error {
	w, rep := b.w, b.rep
	var s *setup
	var cpu, wall, gen, train []float64
	for i := 0; i < setupRounds; i++ {
		c0 := cpuTime()
		var err error
		if s, err = buildSetup(w, b.o.seed, b.tc); err != nil {
			return err
		}
		cpu = append(cpu, cpuTime()-c0)
		wall, gen, train = append(wall, s.totalS), append(gen, s.genS), append(train, s.trainS)
	}
	rep.set("setup_s", median(cpu), "s")
	rep.note("setup_s", "CPU, median of %d: trace generation + training + fleet build", setupRounds)
	rep.set("setup.wall_s", median(wall), "s")
	rep.set("trace.generate_s", median(gen), "s")
	rep.set("predict.train_s", median(train), "s")
	fmt.Printf("trace: %d VMs, %d days, spec seed %d; fleet %d servers in %d clusters\n",
		len(s.tr.VMs), s.spec.Days, s.spec.Seed, len(s.fleet.Servers), s.fleet.NumClusters())

	runs, err := simPhase(s, time.Duration(b.o.seconds*simShare*float64(time.Second)), b.tc)
	if err != nil {
		return err
	}
	b.attempted += len(runs)
	if err := checkSimResult(w, runs[0].res); err != nil {
		return err
	}
	res := runs[0].res
	fmt.Printf("sim: %d runs at Workers=%d, placed %d of %d, digest %s\n",
		len(runs), s.cfg.Workers, res.Placed, res.Requested, runs[0].digest)
	rep.set("sim_cpu_s", median(field(runs, func(r simRun) float64 { return r.cpuS })), "s")
	rep.note("sim_cpu_s", "median of %d", len(runs))
	rep.set("sim.run_wall_s", median(field(runs, func(r simRun) float64 { return r.seconds })), "s")
	rep.note("sim.run_wall_s", "median of %d", len(runs))
	rep.set("sim_alloc_mb", median(field(runs, func(r simRun) float64 { return r.allocMB })), "MB")
	if b.tc != nil {
		if err := simLayers(w, s, runs, rep, b.tc); err != nil {
			return err
		}
	}
	// Collect the simulator's garbage now, so the load generator does not
	// pay for it mid-pass.
	runtime.GC()
	return b.servePhase(s)
}

// servePhase runs coachd on the workload's spec and replays the
// evaluation period's arrivals against it.
func (b *bench) servePhase(s *setup) error {
	w, rep := b.w, b.rep
	specPath := filepath.Join(b.o.out, fmt.Sprintf("%s-seed%d.spec", w.name, b.o.seed))
	if err := os.WriteFile(specPath, []byte(scenario.Format(s.spec)), 0o644); err != nil {
		return err
	}
	lo := s.cfg.TrainUpTo
	sched, err := buildSchedule(s.tr, lo, s.tr.Horizon, b.o.seed, w.rate)
	if err != nil {
		return err
	}
	n := arrivals(sched)
	if n == 0 {
		return fmt.Errorf("no arrivals in the evaluation period")
	}
	passes := (minAdmits + n - 1) / n
	conns := runtime.NumCPU()

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	args := w.coachdArgs(addr, specPath)
	fmt.Printf("coachd %v\n", args)
	logPath := filepath.Join(b.o.out, fmt.Sprintf("coachd-%s-seed%d.log", w.name, b.o.seed))
	t0 := time.Now()
	d, err := startDaemon(b.o.coachd, args, logPath)
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(addr, conns)
	defer c.close()
	if err := d.waitReady(c, 120*time.Second); err != nil {
		return err
	}
	rep.set("serve.spawn_ready_s", time.Since(t0).Seconds(), "s")

	resident := map[int]bool{}
	var ref []*pass
	var cpu float64
	for i := 0; i < passes; i++ {
		c0, err := d.cpuSeconds()
		if err != nil {
			return err
		}
		p, err := runPass(c, sched, conns, w.rate, nil, resident)
		if err != nil {
			return err
		}
		c1, err := d.cpuSeconds()
		if err != nil {
			return err
		}
		cpu += c1 - c0
		b.attempted += p.attempted
		b.failed += p.failed
		if err := checkPass(p); err != nil {
			return err
		}
		if err := releaseResidents(c, resident); err != nil {
			return err
		}
		ref = append(ref, p)
	}
	fmt.Printf("serve: %d passes of %d requests (%d arrivals) at %g req/s over %d connections\n",
		passes, len(sched), n, w.rate, conns)
	httpRequests := 0
	for _, p := range ref {
		httpRequests += p.attempted
	}
	rep.set("serve_cpu_us", cpu/float64(httpRequests)*1e6, "us")
	rep.note("serve_cpu_us", "coachd CPU over %d requests", httpRequests)
	admit, predict := latencies(ref, "/v1/admit"), latencies(ref, "/v1/predict")
	setTail(rep, "http.admit_p50_ms", "http.admit_p99_ms", admit, "ms")
	setTail(rep, "http.predict_p50_ms", "http.predict_p99_ms", predict, "ms")
	bodies := map[int][]byte{}
	if err := predictBodies(ref, bodies); err != nil {
		return err
	}

	if b.tc != nil {
		if err := b.serveLayers(c, s, sched, ref, conns, bodies, resident); err != nil {
			return err
		}
	}
	if err := repredict(c, bodies); err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("serve_rss_mb", rss, "MB")
	return nil
}

// serveLayers runs the traced serving measurements: /v1/stats deltas of
// the reference passes, a traced reference pass, the rate ladder and the
// in-process replay.
func (b *bench) serveLayers(c *client, s *setup, sched []request, ref []*pass, conns int,
	bodies map[int][]byte, resident map[int]bool) error {
	w, rep := b.w, b.rep
	first, last := ref[0].before, ref[len(ref)-1].after
	d := func(a, b int64) float64 { return float64(b - a) }
	rep.set("serve.batch_mean_size", safeDiv(d(first.Batch.Requests, last.Batch.Requests),
		d(first.Batch.Batches, last.Batch.Batches)), "count")
	rep.set("serve.admit_batch_mean_size", safeDiv(d(first.AdmitBatch.Requests, last.AdmitBatch.Requests),
		d(first.AdmitBatch.Batches, last.AdmitBatch.Batches)), "count")
	rep.set("serve.admit_conflict_replays", d(first.AdmitBatch.ConflictReplays, last.AdmitBatch.ConflictReplays), "count")
	wb := d(first.DataPlane.WhatIfBatches, last.DataPlane.WhatIfBatches)
	rep.set("serve.whatif_batches", wb, "count")
	rep.set("serve.whatif_candidates_per_batch",
		safeDiv(d(first.DataPlane.WhatIfCandidates, last.DataPlane.WhatIfCandidates), wb), "count")
	var admitted, rejected int
	var late, wait []float64
	for _, p := range ref {
		admitted, rejected = admitted+p.admitted, rejected+p.rejected
		for _, sm := range p.samples {
			if sm.path == "/v1/predict" || sm.path == "/v1/release" {
				late, wait = append(late, ms(sm.late)), append(wait, ms(sm.wait))
			}
		}
	}
	rep.set("serve.reject_frac", safeDiv(float64(rejected), float64(admitted+rejected)), "ratio")
	rep.set("serve.pressure_rejected", d(first.DataPlane.PressureRejected, last.DataPlane.PressureRejected), "count")
	lateP99, _ := percentile(sortedCopy(late), 99)
	waitP99, _ := percentile(sortedCopy(wait), 99)
	rep.set("loadgen.late_p99_ms", lateP99, "ms")
	rep.set("loadgen.conn_wait_p99_ms", waitP99, "ms")

	traced, err := runPass(c, sched, conns, w.rate, b.tc, resident)
	if err != nil {
		return err
	}
	if err := checkPass(traced); err != nil {
		return err
	}
	if err := releaseResidents(c, resident); err != nil {
		return err
	}
	tracedAdmit, _ := percentile(sortedCopy(latencies([]*pass{traced}, "/v1/admit")), 50)
	rep.set("trace.overhead_admit_p50_ms", tracedAdmit-rep.metrics["http.admit_p50_ms"].Value, "ms")

	// Failures are allowed on the ladder: they count as latency misses
	// and in serve.failed_frac.
	maxRate := 0.0
	var lowest *pass
	var attempted, failed int
	for _, rate := range ladder {
		sub, err := buildSchedule(s.tr, s.cfg.TrainUpTo, s.tr.Horizon, b.o.seed, rate)
		if err != nil {
			return err
		}
		p, err := runPass(c, sub, conns, rate, b.tc, resident)
		if err != nil {
			return err
		}
		if err := releaseResidents(c, resident); err != nil {
			return err
		}
		if err := predictBodies([]*pass{p}, bodies); err != nil {
			return err
		}
		if lowest == nil {
			lowest = p
		}
		attempted, failed = attempted+p.attempted, failed+p.failed
		ok := sustained(p, sub)
		fmt.Printf("ladder %6g req/s: %d requests, %d failed, sustained=%v\n", rate, p.attempted, p.failed, ok)
		if ok {
			maxRate = rate
		}
	}
	rep.set("serve.max_rate_rps", maxRate, "1/s")
	rep.note("serve.max_rate_rps", "p99 <= %g ms and no growing backlog, ladder %v", latencyLimitMs, ladder)
	rep.set("serve.failed_frac", safeDiv(float64(failed), float64(attempted)), "ratio")
	rep.note("serve.failed_frac", "over the %d ladder requests", attempted)

	ip, err := inProcessReplay(w, s, sched, b.tc)
	if err != nil {
		return err
	}
	ipPredict := median(ip.predictUs)
	rep.set("serve.predict_us_p50", ipPredict, "us")
	setTail(rep, "serve.admit_us_p50", "serve.admit_us_p99", ip.admitUs, "us")
	rep.set("serve.release_us_p50", median(ip.releaseUs), "us")
	// An HTTP admit is timed from its VM's arrival, so it is compared
	// with the in-process predict-then-admit time.
	rep.set("http.predict_overhead_us", median(latencies([]*pass{lowest}, "/v1/predict"))*1e3-ipPredict, "us")
	rep.set("http.admit_overhead_us", median(latencies([]*pass{lowest}, "/v1/admit"))*1e3-median(ip.arrivalUs), "us")
	return nil
}

// sustained reports whether a ladder pass met the latency limit on the p99
// over all requests, failures counting as misses, without a growing
// backlog: the median lag of the last quarter of requests stays under the
// limit.
func sustained(p *pass, sched []request) bool {
	var all, tail []float64
	cut := sched[len(sched)*3/4].due
	for _, s := range p.samples {
		if s.path == "" {
			continue
		}
		lat := ms(s.lat)
		if s.failed {
			lat = math.Inf(1)
		}
		all = append(all, lat)
		if s.due >= cut && s.path != "/v1/admit" {
			tail = append(tail, ms(s.lag))
		}
	}
	sort.Float64s(all)
	p99, _ := percentile(all, 99)
	return p99 <= latencyLimitMs && median(tail) <= latencyLimitMs
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
