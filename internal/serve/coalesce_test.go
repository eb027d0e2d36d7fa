package serve

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeRun is a model-free coalescer run function. Requests are ints that
// encode their queue (queue*queueStride + id); each answer is the request
// plus one. It checks the batch bound and the queue of every request, and
// records each batch's size and the replays it reported (size-1).
type fakeRun struct {
	t        *testing.T
	maxBatch int
	// gate, when non-nil, holds the first batch's run until it is closed;
	// entered is closed once that first run started.
	gate    chan struct{}
	entered chan struct{}

	mu      sync.Mutex
	sizes   []int
	replays int64
}

const queueStride = 1_000_000

func (f *fakeRun) run(q int, ins []int, outs []int) int {
	f.mu.Lock()
	first := len(f.sizes) == 0
	f.sizes = append(f.sizes, len(ins))
	f.replays += int64(len(ins) - 1)
	f.mu.Unlock()
	if first && f.gate != nil {
		close(f.entered)
		<-f.gate
	}
	if len(ins) > f.maxBatch {
		f.t.Errorf("batch of %d exceeds MaxBatch %d", len(ins), f.maxBatch)
	}
	for i, in := range ins {
		if in/queueStride != q {
			f.t.Errorf("queue %d batch carries request %d of queue %d", q, in, in/queueStride)
		}
		outs[i] = in + 1
	}
	return len(ins) - 1
}

// submitAll submits ins concurrently on queue q and checks every answer.
func submitAll(t *testing.T, c *coalescer[int, int], q int, ins []int, wg *sync.WaitGroup) {
	for _, in := range ins {
		wg.Add(1)
		go func(in int) {
			defer wg.Done()
			out, err := c.submit(q, in)
			if err != nil || out != in+1 {
				t.Errorf("submit %d = %d, %v; want %d", in, out, err, in+1)
			}
		}(in)
	}
}

// TestCoalescerDrainsQueuedWithoutWaiting holds the first batch's run
// while nine more requests queue up, then releases it. With MaxWait 0 the
// consumer takes exactly what is queued, capped at MaxBatch, and never
// waits for more: the batches are 1, 4, 4, 1. The stats must describe
// exactly those batches.
func TestCoalescerDrainsQueuedWithoutWaiting(t *testing.T) {
	f := &fakeRun{t: t, maxBatch: 4, gate: make(chan struct{}), entered: make(chan struct{})}
	c := newCoalescer(1, BatchConfig{MaxBatch: f.maxBatch}, f.run)
	defer c.close()

	var wg sync.WaitGroup
	submitAll(t, c, 0, []int{0}, &wg)
	<-f.entered
	queued := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	submitAll(t, c, 0, queued, &wg)
	for len(c.queues[0]) < len(queued) {
		time.Sleep(time.Millisecond)
	}
	close(f.gate)
	wg.Wait()

	f.mu.Lock()
	defer f.mu.Unlock()
	want := []int{1, 4, 4, 1}
	if len(f.sizes) != len(want) {
		t.Fatalf("batch sizes %v, want %v", f.sizes, want)
	}
	for i := range want {
		if f.sizes[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", f.sizes, want)
		}
	}
	sorted := append([]int(nil), f.sizes...)
	sort.Ints(sorted)
	st := c.stats()
	if st.Requests != 10 || st.Batches != 4 || st.MaxBatch != 4 || st.MeanSize != 2.5 {
		t.Errorf("stats %+v, want 10 requests in 4 batches of at most 4", st)
	}
	if p50 := sorted[(len(sorted)+1)/2-1]; st.P50Size != p50 {
		t.Errorf("P50Size %d, want %d", st.P50Size, p50)
	}
	if st.ConflictReplays != f.replays {
		t.Errorf("ConflictReplays %d, want %d", st.ConflictReplays, f.replays)
	}
}

// TestCoalescerWaitsForStragglers checks MaxWait > 0: requests arriving
// one by one after the first still join its batch until it is full, and
// a lone request is held for the whole window before running.
func TestCoalescerWaitsForStragglers(t *testing.T) {
	f := &fakeRun{t: t, maxBatch: 4}
	c := newCoalescer(1, BatchConfig{MaxBatch: f.maxBatch, MaxWait: time.Minute}, f.run)
	defer c.close()
	var wg sync.WaitGroup
	for in := 0; in < f.maxBatch; in++ {
		submitAll(t, c, 0, []int{in}, &wg)
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	if st := c.stats(); st.Batches != 1 || st.MaxBatch != f.maxBatch {
		t.Fatalf("stragglers formed %+v, want one full batch", st)
	}

	const wait = 30 * time.Millisecond
	f = &fakeRun{t: t, maxBatch: 4}
	c = newCoalescer(1, BatchConfig{MaxBatch: f.maxBatch, MaxWait: wait}, f.run)
	defer c.close()
	start := time.Now()
	if out, err := c.submit(0, 7); err != nil || out != 8 {
		t.Fatalf("submit = %d, %v", out, err)
	}
	if el := time.Since(start); el < wait {
		t.Errorf("lone request answered after %v, before the %v window closed", el, wait)
	}
}

// TestCoalescerCloseRacingSubmits closes a three-queue coalescer while
// clients keep submitting: every accepted request is answered correctly
// within its own queue, every later one gets ErrClosed, and close never
// races a send (a send on a closed queue would panic).
func TestCoalescerCloseRacingSubmits(t *testing.T) {
	const queues, clients = 3, 12
	f := &fakeRun{t: t, maxBatch: 5}
	c := newCoalescer(queues, BatchConfig{MaxBatch: f.maxBatch}, f.run)

	var clientsDone sync.WaitGroup
	var answered atomic.Int64
	for cl := 0; cl < clients; cl++ {
		clientsDone.Add(1)
		go func(cl int) {
			defer clientsDone.Done()
			q := cl % queues
			for id := 0; ; id++ {
				in := q*queueStride + cl*10_000 + id%10_000
				out, err := c.submit(q, in)
				if errors.Is(err, ErrClosed) {
					if _, err := c.submit(q, in); !errors.Is(err, ErrClosed) {
						t.Errorf("submit after ErrClosed returned %v", err)
					}
					return
				}
				if err != nil || out != in+1 {
					t.Errorf("submit %d = %d, %v", in, out, err)
					return
				}
				answered.Add(1)
			}
		}(cl)
	}
	for answered.Load() < 200 {
		time.Sleep(time.Millisecond)
	}
	var closers sync.WaitGroup
	for i := 0; i < 2; i++ {
		closers.Add(1)
		go func() { defer closers.Done(); c.close() }()
	}
	closers.Wait()
	clientsDone.Wait()

	if st := c.stats(); st.Requests != answered.Load() {
		t.Errorf("stats count %d requests, clients got %d answers", st.Requests, answered.Load())
	}
}
