package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/coach-oss/coach/internal/trace"
)

// reqKind is what a scheduled request does.
type reqKind uint8

const (
	// arrive sends /v1/predict and then /v1/admit for a fresh VM.
	arrive reqKind = iota
	// depart sends /v1/release for an admitted VM.
	depart
)

// request is one entry of the open-loop schedule: due is the offset from
// the start of the pass at which it must be sent.
type request struct {
	due  time.Duration
	vm   int
	kind reqKind
}

// buildSchedule turns the VMs arriving in samples [lo, hi) of tr into an
// open-loop schedule whose mean rate is rate HTTP requests per second (an
// arrival counts two: predict and admit). Each event keeps its 5-minute
// sample, so trace burstiness survives the compression; within its
// sample it sits at a seeded offset. A VM departing inside the window is
// released there. The schedule is a pure function of (tr, lo, hi, seed,
// rate).
func buildSchedule(tr *trace.Trace, lo, hi int, seed int64, rate float64) ([]request, error) {
	if lo < 0 || hi > tr.Horizon || lo >= hi {
		return nil, fmt.Errorf("schedule window [%d,%d) outside the %d-sample trace", lo, hi, tr.Horizon)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("schedule rate %g must be positive", rate)
	}
	type point struct {
		at   float64 // trace time in samples
		vm   int
		kind reqKind
	}
	var pts []point
	httpRequests := 0
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start < lo || vm.Start >= hi {
			continue
		}
		pts = append(pts, point{float64(vm.Start) + jitter(seed, vm.ID, 0), vm.ID, arrive})
		httpRequests += 2
		if vm.End < hi {
			pts = append(pts, point{float64(vm.End) + jitter(seed, vm.ID, 1), vm.ID, depart})
			httpRequests++
		}
	}
	wall := float64(httpRequests) / rate // seconds
	out := make([]request, len(pts))
	for i, p := range pts {
		out[i] = request{
			due:  time.Duration((p.at - float64(lo)) / float64(hi-lo) * wall * float64(time.Second)),
			vm:   p.vm,
			kind: p.kind,
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.due != b.due {
			return a.due < b.due
		}
		if a.vm != b.vm {
			return a.vm < b.vm
		}
		return a.kind < b.kind
	})
	return out, nil
}

// jitter is a deterministic offset in [0, 1) for (seed, vm, stream).
func jitter(seed int64, vm, stream int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(vm)<<1 ^ uint64(stream)
	// splitmix64 finalizer
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// arrivals counts the arrive requests of a schedule.
func arrivals(sched []request) int {
	n := 0
	for _, r := range sched {
		if r.kind == arrive {
			n++
		}
	}
	return n
}
