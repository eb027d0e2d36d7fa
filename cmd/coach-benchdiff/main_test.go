package main

import (
	"strings"
	"testing"
)

// simcoreOut is `go test -bench -count=3` output for one simcore grid
// point: three runs per engine, listed in go test's order, with noise
// lines and an unrelated engine mixed in.
const simcoreOut = `goos: linux
goarch: amd64
pkg: github.com/coach-oss/coach
BenchmarkSimCore/sparse-churn/vms=1000/days=7/workers=1/engine=dense-2         	       3	  30000000 ns/op	    554518 visits/op	 2278949 B/op	   21304 allocs/op
BenchmarkSimCore/sparse-churn/vms=1000/days=7/workers=1/engine=event-2         	       3	  21000000 ns/op	     48091 visits/op	 3367816 B/op	   26792 allocs/op
BenchmarkSimCore/sparse-churn/vms=1000/days=7/workers=1/engine=dense-2         	       3	  26000000 ns/op	    554518 visits/op	 2278949 B/op	   21304 allocs/op
BenchmarkSimCore/sparse-churn/vms=1000/days=7/workers=1/engine=event-2         	       3	  99000000 ns/op	     48091 visits/op	 3367816 B/op	   26792 allocs/op
BenchmarkSimCore/sparse-churn/vms=1000/days=7/workers=1/engine=dense-2         	       3	  27000000 ns/op	    554518 visits/op	 2278949 B/op	   21304 allocs/op
BenchmarkSimCore/sparse-churn/vms=1000/days=7/workers=1/engine=event-2         	       3	  23000000 ns/op	     48091 visits/op	 3367816 B/op	   26792 allocs/op
BenchmarkSimCore/sparse-churn/vms=1000/days=7/workers=1/engine=other-2         	       3	         1 ns/op
PASS
ok  	github.com/coach-oss/coach	12.3s
`

func TestParseBenchMedianOfRepeats(t *testing.T) {
	got, err := parseBench(strings.NewReader(simcoreOut), grids["simcore"])
	if err != nil {
		t.Fatal(err)
	}
	const key = "SimCore/sparse-churn/vms=1000/days=7/workers=1"
	if len(got) != 1 {
		t.Fatalf("parsed %d grid points, want only %q: %v", len(got), key, got)
	}
	p, ok := got[key]
	if !ok {
		t.Fatalf("grid point %q missing: %v", key, got)
	}
	if p.Dense == nil || p.Event == nil {
		t.Fatalf("variants missing: dense=%v event=%v", p.Dense, p.Event)
	}
	// Medians, not the last run: dense 26/27/30 ms -> 27, event 21/23/99
	// ms -> 23 (the 99 ms outlier alone would fail the ratio gate).
	if p.Dense.NsPerOp != 27000000 || p.Event.NsPerOp != 23000000 {
		t.Errorf("ns/op dense %v event %v, want medians 27000000 and 23000000", p.Dense.NsPerOp, p.Event.NsPerOp)
	}
	if p.Dense.VisitsPerOp != 554518 || p.Event.VisitsPerOp != 48091 {
		t.Errorf("visits/op dense %v event %v", p.Dense.VisitsPerOp, p.Event.VisitsPerOp)
	}
}

func TestParseBenchSingleRunAndNsPerRow(t *testing.T) {
	out := `BenchmarkPredictMatrix/trees=40/depth=12/batch=64/layout=walk-2   	 1000	  100 ns/op	  50.5 ns/row
BenchmarkPredictMatrix/trees=40/depth=12/batch=64/layout=matrix-2 	 1000	  100 ns/op	  12.25 ns/row
`
	got, err := parseBench(strings.NewReader(out), grids["predict"])
	if err != nil {
		t.Fatal(err)
	}
	p := got["PredictMatrix/trees=40/depth=12/batch=64"]
	if p.Walk == nil || p.Matrix == nil || p.Walk.NsPerRow != 50.5 || p.Matrix.NsPerRow != 12.25 {
		t.Fatalf("predict grid point parsed as walk=%+v matrix=%+v", p.Walk, p.Matrix)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{0, 0}, 0},
	} {
		if got := median(append([]float64(nil), c.xs...)); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCheckPointRatioAndVisits(t *testing.T) {
	spec := grids["simcore"]
	want := gridPoint{
		Dense: &engineSample{NsPerOp: 100, VisitsPerOp: 1000},
		Event: &engineSample{NsPerOp: 80, VisitsPerOp: 100},
	}
	// A slower machine scales both variants: the ratio holds.
	have := gridPoint{
		Dense: &engineSample{NsPerOp: 300, VisitsPerOp: 1000},
		Event: &engineSample{NsPerOp: 240, VisitsPerOp: 100},
	}
	if f := checkPoint("k", want, have, 0.25, spec); len(f) != 0 {
		t.Errorf("scaled run failed the gate: %v", f)
	}
	// The event engine losing ground beyond the tolerance fails.
	have.Event = &engineSample{NsPerOp: 310, VisitsPerOp: 100}
	if f := checkPoint("k", want, have, 0.25, spec); len(f) != 1 {
		t.Errorf("ratio regression: failures %v, want one", f)
	}
	// Visiting more VMs fails regardless of time.
	have.Event = &engineSample{NsPerOp: 240, VisitsPerOp: 200}
	if f := checkPoint("k", want, have, 0.25, spec); len(f) != 1 {
		t.Errorf("visit regression: failures %v, want one", f)
	}
	// A variant absent from the output fails.
	have.Event = nil
	if f := checkPoint("k", want, have, 0.25, spec); len(f) != 1 {
		t.Errorf("missing variant: failures %v, want one", f)
	}
}
