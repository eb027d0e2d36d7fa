package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/coach-oss/coach/internal/serve"
)

// sample is one timed HTTP request of a pass. lat runs from when the
// request was due: its VM's scheduled instant, so an admit's latency
// includes the predict sent before it, as the arriving VM waits for both.
// late is how far behind schedule the request was handed to a worker (for
// an admit, when its predict answered), wait how long it then waited for
// a free connection.
type sample struct {
	path     string
	due      time.Duration // from the start of the pass
	vm       int
	late     time.Duration
	wait     time.Duration
	lat      time.Duration
	lag      time.Duration // sent minus due
	code     int
	body     []byte
	err      error
	admitted bool
	failed   bool // set by classify
}

// pass is the outcome of replaying one schedule.
type pass struct {
	rate    float64
	samples []sample // two slots per request; unused slots have an empty path
	// Tallies of answers: admitted and definitively rejected admissions,
	// completed releases, releases refused with 409, and failures
	// (transport error, timeout, non-definitive 5xx, unexpected 4xx).
	admitted, rejected, released, conflicts, failed, attempted int
	before, after                                              serve.Stats
}

// runPass replays sched as an open loop over at most conns connections:
// a generator hands each request out at its due time, whatever the server
// is doing, and conns workers send them. A release waits for its VM's
// admission to be answered and is skipped when the VM was not admitted.
func runPass(c *client, sched []request, conns int, rate float64, tc *tracer, admittedNow map[int]bool) (*pass, error) {
	p := &pass{rate: rate, samples: make([]sample, 2*len(sched))}
	if err := c.getJSON("/v1/stats", &p.before); err != nil {
		return nil, err
	}
	done := make(map[int]chan struct{}, len(sched))
	for _, r := range sched {
		if r.kind == arrive {
			done[r.vm] = make(chan struct{})
		}
	}
	var mu sync.Mutex // guards admittedNow
	type job struct {
		i          int
		dispatched time.Time
	}
	// Sized to the schedule so the generator never blocks: a slow server
	// shows as connection wait, not as generator lateness.
	jobs := make(chan job, len(sched))
	root := tc.open(fmt.Sprintf("pass.%g", rate), -1, -1)
	start := time.Now()
	go func() {
		for i, r := range sched {
			if d := r.due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			jobs <- job{i, time.Now()}
		}
		close(jobs)
	}()
	send := func(path string, vm int, due, dispatched time.Time) sample {
		t0 := time.Now()
		code, body, err := c.post(path, vm)
		t1 := time.Now()
		tc.record(path, t0, t1, root, int64(vm))
		return sample{path: path, vm: vm, due: due.Sub(start), late: dispatched.Sub(due), wait: t0.Sub(dispatched),
			lat: t1.Sub(due), lag: t0.Sub(due), code: code, body: body, err: err}
	}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := sched[j.i]
				due := start.Add(r.due)
				if r.kind == arrive {
					pr := send("/v1/predict", r.vm, due, j.dispatched)
					ad := send("/v1/admit", r.vm, due, due.Add(pr.lat))
					var resp serve.AdmitResponse
					if ad.err == nil && json.Unmarshal(ad.body, &resp) == nil {
						ad.admitted = ad.code == http.StatusOK && resp.Admitted
					}
					p.samples[2*j.i], p.samples[2*j.i+1] = pr, ad
					if ad.admitted {
						mu.Lock()
						admittedNow[r.vm] = true
						mu.Unlock()
					}
					close(done[r.vm])
					continue
				}
				if ch, ok := done[r.vm]; ok {
					<-ch
				}
				mu.Lock()
				resident := admittedNow[r.vm]
				mu.Unlock()
				if !resident {
					continue
				}
				p.samples[2*j.i] = send("/v1/release", r.vm, due, j.dispatched)
				mu.Lock()
				delete(admittedNow, r.vm)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	tc.close(root)
	if err := c.getJSON("/v1/stats", &p.after); err != nil {
		return nil, err
	}
	for i := range p.samples {
		p.classify(&p.samples[i])
	}
	return p, nil
}

// classify tallies one answered request.
func (p *pass) classify(s *sample) {
	if s.path == "" {
		return
	}
	p.attempted++
	switch {
	case s.err != nil:
		s.failed = true
	case s.path == "/v1/predict":
		s.failed = s.code != http.StatusOK
	case s.path == "/v1/admit":
		var resp serve.AdmitResponse
		parsed := json.Unmarshal(s.body, &resp) == nil
		switch {
		case s.admitted:
			p.admitted++
		case parsed && !resp.Admitted && resp.Reason != "" &&
			(s.code == http.StatusOK || s.code == http.StatusServiceUnavailable):
			// A definitive capacity or pressure rejection is an answer.
			p.rejected++
		default:
			s.failed = true
		}
	case s.path == "/v1/release":
		var resp serve.ReleaseResponse
		switch {
		case s.code == http.StatusOK && json.Unmarshal(s.body, &resp) == nil && resp.Released:
			p.released++
		case s.code == http.StatusConflict:
			// Only a VM a crash lost may refuse release; checkPass
			// holds these against the server's lost-VM count.
			p.conflicts++
		default:
			s.failed = true
		}
	}
	if s.failed {
		p.failed++
	}
}

// latencies returns the latencies of one endpoint in milliseconds.
func latencies(ps []*pass, path string) []float64 {
	var out []float64
	for _, p := range ps {
		for _, s := range p.samples {
			if s.path == path && s.err == nil {
				out = append(out, ms(s.lat))
			}
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func totals(st serve.Stats) (admitted, rejected, released int64) {
	for _, c := range st.Clusters {
		admitted += c.Admitted
		rejected += c.Rejected
		released += c.Released
	}
	return admitted, rejected, released
}

// checkPass holds the generator's tallies against coachd's own counters.
func checkPass(p *pass) error {
	a0, r0, l0 := totals(p.before)
	a1, r1, l1 := totals(p.after)
	if int(a1-a0) != p.admitted || int(r1-r0) != p.rejected || int(l1-l0) != p.released {
		return fmt.Errorf("check failed: coachd counted %d admitted / %d rejected / %d released, the generator %d / %d / %d",
			a1-a0, r1-r0, l1-l0, p.admitted, p.rejected, p.released)
	}
	if lost := int(p.after.DataPlane.LostVMs - p.before.DataPlane.LostVMs); p.conflicts > lost {
		return fmt.Errorf("check failed: %d releases refused with 409, only %d VMs lost to crashes", p.conflicts, lost)
	}
	if p.failed > 0 {
		return fmt.Errorf("check failed: %d of %d requests failed at %g req/s", p.failed, p.attempted, p.rate)
	}
	return nil
}

// releaseResidents releases, untimed, every VM a pass left admitted. A
// VM lost to a crash answers 409; the count must not exceed the server's
// lost-VM counter.
func releaseResidents(c *client, admittedNow map[int]bool) error {
	var before, after serve.Stats
	if err := c.getJSON("/v1/stats", &before); err != nil {
		return err
	}
	conflicts := 0
	for vm := range admittedNow {
		code, body, err := c.post("/v1/release", vm)
		if err != nil {
			return fmt.Errorf("release vm %d: %w", vm, err)
		}
		var resp serve.ReleaseResponse
		switch {
		case code == http.StatusOK && json.Unmarshal(body, &resp) == nil && resp.Released:
		case code == http.StatusConflict:
			conflicts++
		default:
			return fmt.Errorf("check failed: release of admitted vm %d answered %d %s", vm, code, body)
		}
		delete(admittedNow, vm)
	}
	if err := c.getJSON("/v1/stats", &after); err != nil {
		return err
	}
	if conflicts > int(after.DataPlane.LostVMs) {
		return fmt.Errorf("check failed: %d resident releases refused, only %d VMs lost", conflicts, after.DataPlane.LostVMs)
	}
	return nil
}

// predictBodies collects the first predict body per VM across passes and
// checks every later one is byte-identical.
func predictBodies(ps []*pass, bodies map[int][]byte) error {
	for _, p := range ps {
		for _, s := range p.samples {
			if s.path != "/v1/predict" || s.err != nil || s.code != http.StatusOK {
				continue
			}
			if b, ok := bodies[s.vm]; !ok {
				bodies[s.vm] = s.body
			} else if !bytes.Equal(b, s.body) {
				return fmt.Errorf("check failed: predict body for vm %d changed between asks", s.vm)
			}
		}
	}
	return nil
}

// repredict asks every predicted VM once more, untimed, and compares.
func repredict(c *client, bodies map[int][]byte) error {
	for vm, want := range bodies {
		code, body, err := c.post("/v1/predict", vm)
		if err != nil {
			return fmt.Errorf("re-predict vm %d: %w", vm, err)
		}
		if code != http.StatusOK || !bytes.Equal(body, want) {
			return fmt.Errorf("check failed: re-predict of vm %d answered %d with a different body", vm, code)
		}
	}
	return nil
}

// inProcess replays sched in a closed loop through an in-process
// serve.Service with coachd's configuration: one caller, each call timed.
type inProcessTimes struct {
	predictUs, admitUs, releaseUs []float64
	arrivalUs                     []float64 // predict then admit, as timed over HTTP
}

func inProcessReplay(w workload, s *setup, sched []request, tc *tracer) (*inProcessTimes, error) {
	svc, err := serve.New(s.tr, s.fleet, w.serveConfig())
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	if err := svc.Warm(); err != nil {
		return nil, err
	}
	root := tc.open("serve.inprocess", -1, -1)
	defer tc.close(root)
	out := &inProcessTimes{}
	resident := map[int]bool{}
	for _, r := range sched {
		vm := svc.VM(r.vm)
		if vm == nil {
			return nil, fmt.Errorf("vm %d not in the served trace", r.vm)
		}
		id := int64(r.vm)
		if r.kind == arrive {
			t0 := time.Now()
			if _, _, err := svc.Predict(vm); err != nil {
				return nil, err
			}
			t1 := time.Now()
			res, err := svc.Admit(vm)
			t2 := time.Now()
			if err != nil {
				return nil, err
			}
			tc.record("serve.Predict", t0, t1, root, id)
			tc.record("serve.Admit", t1, t2, root, id)
			out.predictUs = append(out.predictUs, us(t1.Sub(t0)))
			out.admitUs = append(out.admitUs, us(t2.Sub(t1)))
			out.arrivalUs = append(out.arrivalUs, us(t2.Sub(t0)))
			resident[r.vm] = res.Admitted
			continue
		}
		if !resident[r.vm] {
			continue
		}
		t0 := time.Now()
		ok, err := svc.Release(vm)
		t1 := time.Now()
		if err != nil || !ok {
			return nil, fmt.Errorf("check failed: in-process release of vm %d: %v", r.vm, err)
		}
		tc.record("serve.Release", t0, t1, root, id)
		out.releaseUs = append(out.releaseUs, us(t1.Sub(t0)))
		delete(resident, r.vm)
	}
	return out, nil
}
