// Command coach-benchdiff gates CI on a committed benchmark-grid
// baseline: it parses `go test -bench` output for one of the repo's
// two-variant benchmark grids and compares every grid point against the
// matching BENCH_*.json file. Exit status 1 means a regression (or a
// missing grid point).
//
// Usage:
//
//	go test -run=NONE -bench='^BenchmarkSimCore$' -benchtime=3x -count=3 . > out.txt
//	coach-benchdiff -grid simcore [-tolerance 0.25] out.txt
//
//	go test -run=NONE -bench='^BenchmarkPredictMatrix$' . > out.txt
//	coach-benchdiff -grid predict [-tolerance 0.25] out.txt
//
//	go test -run=NONE -bench='^BenchmarkServeAdmit$' . > out.txt
//	coach-benchdiff -grid serve [-tolerance 0.5] out.txt
//
// With no file argument the bench output is read from stdin. When a grid
// point repeats in the output (go test -count=N), each variant's metrics
// are the medians over its repetitions, so one noisy run cannot trip the
// gate on its own.
//
// Each grid measures the same work under two variants — simcore runs the
// dense reference replay loop against the event-driven core, predict runs
// the per-row pointer walk against the level-synchronous PredictMatrix
// path, serve runs serial per-request admission against the coalesced
// batched admit path — and the checks are chosen to be meaningful across
// machines (raw ns/op on shared CI runners is far too noisy to gate on):
//
//   - visits/op, where the grid reports it (simcore), must match the
//     baseline within the tolerance for each variant. The count is
//     deterministic, so any drift is a behavioural change: the event
//     core visiting VMs it used to skip is exactly the regression this
//     gate exists to catch.
//   - the variant ratio (event:dense ns/op for simcore, matrix:walk
//     ns/row for predict) must not exceed its baseline ratio by more
//     than the tolerance. Comparing the two variants on the same host in
//     the same run cancels machine speed out of the gate; for predict
//     this is the batched-inference speedup recorded in
//     BENCH_predict.json, so the gate fires when the level-synchronous
//     path loses ground to the walk it replaced. For serve the ratio is
//     batched:serial admit ns/op per client count (BENCH_serve.json), so
//     the gate fires when admission coalescing stops paying for itself.
//
// Baseline grid points whose names never appear in the bench output fail
// the gate too — a renamed or silently skipped benchmark would otherwise
// pass forever. Entries under "full_scale" in the baseline are recorded
// for documentation (the opt-in COACH_BENCH_FULL acceptance run) and are
// compared only when present in the output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// engineSample is one (grid point, engine) measurement.
type engineSample struct {
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerRow    float64 `json:"ns_per_row,omitempty"`
	VisitsPerOp float64 `json:"visits_per_op,omitempty"`
}

// gridPoint is one grid configuration measured under both variants. The
// simcore grid fills dense/event, the predict grid walk/matrix, the
// serve grid serial/batched.
type gridPoint struct {
	Dense   *engineSample `json:"dense,omitempty"`
	Event   *engineSample `json:"event,omitempty"`
	Walk    *engineSample `json:"walk,omitempty"`
	Matrix  *engineSample `json:"matrix,omitempty"`
	Serial  *engineSample `json:"serial,omitempty"`
	Batched *engineSample `json:"batched,omitempty"`
}

func (p *gridPoint) sample(name string) *engineSample {
	switch name {
	case "dense":
		return p.Dense
	case "event":
		return p.Event
	case "walk":
		return p.Walk
	case "matrix":
		return p.Matrix
	case "serial":
		return p.Serial
	case "batched":
		return p.Batched
	}
	return nil
}

func (p *gridPoint) setSample(name string, s *engineSample) {
	switch name {
	case "dense":
		p.Dense = s
	case "event":
		p.Event = s
	case "walk":
		p.Walk = s
	case "matrix":
		p.Matrix = s
	case "serial":
		p.Serial = s
	case "batched":
		p.Batched = s
	}
}

// gridSpec describes one gated benchmark grid: which path segment names
// the variant, which variant is the reference and which the optimized
// path, and which reported metric feeds the ratio check.
type gridSpec struct {
	baseline   string // default -baseline
	seg        string // variant path-segment prefix, e.g. "engine="
	base, alt  string // reference and optimized variant names
	metricName string // reported metric feeding the ratio check
	metric     func(*engineSample) float64
}

var grids = map[string]gridSpec{
	"simcore": {
		baseline: "BENCH_simcore.json", seg: "engine=",
		base: "dense", alt: "event",
		metricName: "ns/op", metric: func(s *engineSample) float64 { return s.NsPerOp },
	},
	"predict": {
		baseline: "BENCH_predict.json", seg: "layout=",
		base: "walk", alt: "matrix",
		metricName: "ns/row", metric: func(s *engineSample) float64 { return s.NsPerRow },
	},
	"serve": {
		baseline: "BENCH_serve.json", seg: "mode=",
		base: "serial", alt: "batched",
		metricName: "ns/op", metric: func(s *engineSample) float64 { return s.NsPerOp },
	},
}

// baseline mirrors BENCH_simcore.json. Narrative fields (description,
// analysis) are carried so the file stays self-documenting; only the two
// grids matter here.
type baseline struct {
	Description string               `json:"description"`
	Benchmarks  map[string]gridPoint `json:"benchmarks"`
	FullScale   map[string]gridPoint `json:"full_scale"`
	Analysis    json.RawMessage      `json:"analysis"`
}

func main() {
	gridName := flag.String("grid", "simcore", "benchmark grid to gate: simcore, predict or serve")
	baselinePath := flag.String("baseline", "", "committed baseline JSON (defaults per -grid)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed relative drift for visits/op and for the variant ratio")
	flag.Parse()

	spec, ok := grids[*gridName]
	if !ok {
		fatal(fmt.Errorf("unknown -grid %q (want simcore, predict or serve)", *gridName))
	}
	if *baselinePath == "" {
		*baselinePath = spec.baseline
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in, spec)
	if err != nil {
		fatal(err)
	}

	var failures []string
	checked := 0
	for _, grid := range []struct {
		name     string
		points   map[string]gridPoint
		required bool
	}{
		{"benchmarks", base.Benchmarks, true},
		{"full_scale", base.FullScale, false},
	} {
		for _, key := range sortedKeys(grid.points) {
			want := grid.points[key]
			have, ok := got[key]
			if !ok {
				if grid.required {
					failures = append(failures, fmt.Sprintf("%s: grid point missing from bench output", key))
				}
				continue
			}
			checked++
			failures = append(failures, checkPoint(key, want, have, *tolerance, spec)...)
		}
	}
	if checked == 0 {
		failures = append(failures, fmt.Sprintf("no baseline grid point found in bench output (did the %s grid run?)", *gridName))
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("coach-benchdiff: %d grid points within %.0f%% of %s\n", checked, 100**tolerance, *baselinePath)
}

// checkPoint compares one measured grid point against its baseline.
func checkPoint(key string, want, have gridPoint, tol float64, spec gridSpec) []string {
	var out []string
	for _, name := range []string{spec.base, spec.alt} {
		w, h := want.sample(name), have.sample(name)
		if w == nil {
			continue
		}
		if h == nil {
			out = append(out, fmt.Sprintf("%s: %s%s missing from bench output", key, spec.seg, name))
			continue
		}
		if drift := relDrift(h.VisitsPerOp, w.VisitsPerOp); drift > tol {
			out = append(out, fmt.Sprintf("%s %s%s: visits/op %.0f vs baseline %.0f (%+.0f%%)",
				key, spec.seg, name, h.VisitsPerOp, w.VisitsPerOp, 100*(h.VisitsPerOp/w.VisitsPerOp-1)))
		}
	}
	wb, wa := want.sample(spec.base), want.sample(spec.alt)
	hb, ha := have.sample(spec.base), have.sample(spec.alt)
	if wb != nil && wa != nil && hb != nil && ha != nil &&
		spec.metric(wb) > 0 && spec.metric(hb) > 0 {
		wantRatio := spec.metric(wa) / spec.metric(wb)
		haveRatio := spec.metric(ha) / spec.metric(hb)
		if haveRatio > wantRatio*(1+tol) {
			out = append(out, fmt.Sprintf("%s: %s:%s %s ratio %.2f vs baseline %.2f (the %s path lost ground to the %s reference)",
				key, spec.alt, spec.base, spec.metricName, haveRatio, wantRatio, spec.alt, spec.base))
		}
	}
	return out
}

// relDrift is |have-want|/want, treating a zero baseline as only
// matching zero.
func relDrift(have, want float64) float64 {
	if want == 0 {
		if have == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(have-want) / want
}

// parseBench reads `go test -bench` output and folds the two variant
// sub-benchmarks of each grid point together. Keys match the baseline's:
// the benchmark name with the "Benchmark" prefix, the GOMAXPROCS "-N"
// suffix and the variant path segment removed, e.g.
// "SimCore/sparse-churn/vms=1000/days=7/workers=1",
// "PredictMatrix/trees=40/depth=12/batch=64" or
// "ServeAdmit/clients=64". A variant measured more than once (-count=N)
// gets the median of each metric over its runs.
func parseBench(r io.Reader, spec gridSpec) (map[string]gridPoint, error) {
	runs := make(map[string]map[string][]engineSample) // key -> variant -> runs
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > strings.LastIndex(name, "/") {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		key, variant, ok := splitVariant(name, spec.seg)
		if !ok || (variant != spec.base && variant != spec.alt) {
			continue
		}
		s := engineSample{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.NsPerOp = v
			case "ns/row":
				s.NsPerRow = v
			case "visits/op":
				s.VisitsPerOp = v
			}
		}
		if runs[key] == nil {
			runs[key] = make(map[string][]engineSample)
		}
		runs[key][variant] = append(runs[key][variant], s)
	}
	out := make(map[string]gridPoint, len(runs))
	for key, variants := range runs {
		var p gridPoint
		for variant, rs := range variants {
			p.setSample(variant, medianSample(rs))
		}
		out[key] = p
	}
	return out, sc.Err()
}

// medianSample is the per-metric median of one variant's runs.
func medianSample(runs []engineSample) *engineSample {
	metric := func(get func(engineSample) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = get(r)
		}
		return median(xs)
	}
	return &engineSample{
		NsPerOp:     metric(func(s engineSample) float64 { return s.NsPerOp }),
		NsPerRow:    metric(func(s engineSample) float64 { return s.NsPerRow }),
		VisitsPerOp: metric(func(s engineSample) float64 { return s.VisitsPerOp }),
	}
}

// median sorts xs in place and returns its middle value, or the mean of
// the two middle values for an even count.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// splitVariant removes the variant path segment (e.g. "engine=X",
// "layout=X") from a benchmark name, returning the remaining key and the
// variant.
func splitVariant(name, segPrefix string) (key, variant string, ok bool) {
	segs := strings.Split(name, "/")
	rest := segs[:0]
	for _, seg := range segs {
		if v, found := strings.CutPrefix(seg, segPrefix); found {
			variant = v
			continue
		}
		rest = append(rest, seg)
	}
	if variant == "" {
		return "", "", false
	}
	return strings.Join(rest, "/"), variant, true
}

func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in baseline", path)
	}
	return &b, nil
}

func sortedKeys(m map[string]gridPoint) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coach-benchdiff:", err)
	os.Exit(1)
}
