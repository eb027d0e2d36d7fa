package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/trace"
)

func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	sp, err := scenario.Preset("capacity")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.Scaled(200, 20)
	sp.Days = 4
	tr, err := trace.GenerateScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestScheduleIsPureFunctionOfTraceSeedRate(t *testing.T) {
	tr := smallTrace(t)
	lo, hi := tr.Horizon/2, tr.Horizon
	a, err := buildSchedule(tr, lo, hi, 7, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildSchedule(smallTrace(t), lo, hi, 7, 300)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same trace, seed and rate gave different schedules (%d vs %d requests)", len(a), len(b))
	}
	if c, _ := buildSchedule(tr, lo, hi, 8, 300); reflect.DeepEqual(a, c) {
		t.Fatal("another seed gave the same schedule")
	}
	// Doubling the rate halves every due time: the order is kept.
	d, _ := buildSchedule(tr, lo, hi, 7, 600)
	for i := range a {
		if a[i].vm != d[i].vm || a[i].kind != d[i].kind {
			t.Fatalf("request %d reordered by the rate", i)
		}
		if diff := a[i].due - 2*d[i].due; diff < -2 || diff > 2 {
			t.Fatalf("request %d due %v at rate 300, %v at rate 600", i, a[i].due, d[i].due)
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].due < a[j].due }) {
		t.Fatal("schedule not in due order")
	}
	// Every released VM arrives earlier in the same window, and the mean
	// HTTP rate is the one asked for.
	arrived := map[int]bool{}
	httpRequests := 0
	for _, r := range a {
		if r.kind == arrive {
			arrived[r.vm] = true
			httpRequests += 2
			continue
		}
		httpRequests++
		if !arrived[r.vm] {
			t.Fatalf("vm %d released before it arrived", r.vm)
		}
	}
	wall := time.Duration(float64(httpRequests) / 300 * float64(time.Second))
	if last := a[len(a)-1].due; last > wall+wall/100 {
		t.Fatalf("last request due at %v, past the %v the rate allows", last, wall)
	}
	if _, err := buildSchedule(tr, lo, hi, 7, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := buildSchedule(tr, lo, hi+1, 7, 100); err == nil {
		t.Fatal("window past the horizon accepted")
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantP float64
		wantV float64
		ok    bool
	}{
		{5, 0, 0, false},    // not even 10 beyond the median
		{20, 50, 10, true},  // p50 = 10th, 10 beyond; p90 has 2
		{100, 90, 90, true}, // p90 = 90th, 10 beyond; p95 has 5
		{1000, 99, 990, true},
		{1010, 99, 1000, true},
		{10000, 99.9, 9990, true},
	} {
		p, v, n, ok := highestPercentile(mk(tc.n))
		if p != tc.wantP || v != tc.wantV || n != tc.n || ok != tc.ok {
			t.Errorf("n=%d: got p%g=%g (n=%d, ok=%v), want p%g=%g ok=%v", tc.n, p, v, n, ok, tc.wantP, tc.wantV, tc.ok)
		}
	}
	if _, ok := percentile(mk(999), 99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it, yet was accepted")
	}
}

// fakeCoachd answers the endpoints a pass uses, each after delay, and
// counts admissions and releases as coachd's /v1/stats does.
func fakeCoachd(delay time.Duration) *httptest.Server {
	var admitted, released atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.Stats{Clusters: []serve.ClusterStats{
			{Admitted: admitted.Load(), Released: released.Load()}}})
	})
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		_, _ = w.Write([]byte(`{"vm":1,"ok":false}`))
	})
	mux.HandleFunc("/v1/admit", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		admitted.Add(1)
		_, _ = w.Write([]byte(`{"vm":1,"admitted":true,"cluster":0,"server":0,"oversubscribed":false}`))
	})
	mux.HandleFunc("/v1/release", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		released.Add(1)
		_, _ = w.Write([]byte(`{"vm":1,"released":true}`))
	})
	return httptest.NewServer(mux)
}

func TestLatencyIsMeasuredFromDueTime(t *testing.T) {
	const delay = 20 * time.Millisecond
	srv := fakeCoachd(delay)
	defer srv.Close()
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), 1)
	defer c.close()
	// Four arrivals due at once over one connection: the k-th predict
	// waits for the k earlier predict+admit pairs, and that wait is part
	// of its latency.
	// A release due at the same instant queues behind all four pairs.
	sched := []request{{0, 1, arrive}, {0, 2, arrive}, {0, 3, arrive}, {0, 4, arrive}, {0, 1, depart}}
	resident := map[int]bool{}
	p, err := runPass(c, sched, 1, 100, nil, resident)
	if err != nil {
		t.Fatal(err)
	}
	if p.admitted != 4 || p.released != 1 || p.failed != 0 || len(resident) != 3 {
		t.Fatalf("admitted %d, released %d, failed %d, resident %d", p.admitted, p.released, p.failed, len(resident))
	}
	if rel := p.samples[8]; rel.path != "/v1/release" || rel.lat < 9*delay {
		t.Errorf("release %q latency %v, want at least %v", rel.path, rel.lat, 9*delay)
	}
	for k := 0; k < 4; k++ {
		pr, ad := p.samples[2*k], p.samples[2*k+1]
		if pr.path != "/v1/predict" || ad.path != "/v1/admit" {
			t.Fatalf("slot %d holds %q and %q", k, pr.path, ad.path)
		}
		if min := time.Duration(2*k+1) * delay; pr.lat < min {
			t.Errorf("predict %d latency %v, want at least %v: its wait behind earlier requests is not counted", k, pr.lat, min)
		}
		if pr.lag < time.Duration(2*k)*delay || pr.lat < pr.lag+delay {
			t.Errorf("predict %d sent %v after due with latency %v", k, pr.lag, pr.lat)
		}
		if ad.lat < pr.lat+delay {
			t.Errorf("admit %d latency %v does not include its predict's %v", k, ad.lat, pr.lat)
		}
		if pr.late < 0 || pr.wait < 0 || pr.late+pr.wait != pr.lag {
			t.Errorf("predict %d: late %v + wait %v != lag %v", k, pr.late, pr.wait, pr.lag)
		}
	}
	if err := checkPass(p); err != nil {
		t.Fatal(err)
	}
	if err := releaseResidents(c, resident); err != nil || len(resident) != 0 {
		t.Fatalf("releaseResidents: %v, %d left", err, len(resident))
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	for _, n := range append(append([]string(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
	}
	for _, bad := range []string{"", "a b", "_x", "p99/ms", "é"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted as a metric name", bad)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	if got := names(bench.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, perfbench prints %v", got, endToEnd)
	}
	if got := names(bench.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, perfbench prints %v", got, perLayer)
	}
	for _, w := range names(bench.Workloads) {
		if _, err := lookupWorkload(w); err != nil {
			t.Error(err)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bench.Workloads), len(workloads))
	}
}
