package serve

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// ErrClosed is returned for requests submitted after shutdown began.
var ErrClosed = errors.New("serve: service is shutting down")

// BatchConfig tunes one request coalescer (predictions or admissions).
type BatchConfig struct {
	// Disabled routes every request through the per-request path,
	// bypassing the coalescer entirely (the baseline the batched path is
	// benchmarked against).
	Disabled bool
	// MaxBatch caps how many requests coalesce into one batch (default
	// 64). Larger batches amortize per-batch work further but add
	// head-of-line latency for the first request in the batch. Each queue
	// holds up to 4*MaxBatch waiting requests.
	MaxBatch int
	// MaxWait bounds how long a non-full batch waits for stragglers after
	// the first request arrives. The default 0 is purely opportunistic:
	// the coalescer drains whatever is already queued and runs
	// immediately, so an idle service adds no latency while a loaded one
	// naturally forms large batches (requests queue up while the previous
	// batch runs).
	MaxWait time.Duration
}

// BatchStats reports how effectively concurrent requests coalesced.
type BatchStats struct {
	Requests int64   `json:"requests"`
	Batches  int64   `json:"batches"`
	MaxBatch int     `json:"max_batch"`
	MeanSize float64 `json:"mean_size"`
	// P50Size is the median batch size: the smallest size s such that at
	// least half of all batches had size ≤ s.
	P50Size int `json:"p50_size"`
	// ConflictReplays counts (request, server) cells re-scored after an
	// earlier request in the same admission batch committed a placement
	// on that server — the incremental work that keeps batched decisions
	// bit-identical to serial arrival order (core.Rollout.Commit). Always
	// 0 for predictions.
	ConflictReplays int64 `json:"conflict_replays"`
}

// coalescer batches concurrent requests. It has one queue per
// independent domain (one for predictions, one per cluster shard for
// admissions, so a batch never crosses a shard) and one consumer
// goroutine per queue. Each consumer blocks for the first request,
// drains whatever is already queued (up to MaxBatch, waiting at most
// MaxWait for stragglers), runs one batched pass over the batch and fans
// the results back out. run is called from the queue's consumer only, so
// per-queue scratch needs no locking of its own.
type coalescer[In, Out any] struct {
	cfg    BatchConfig
	run    func(queue int, ins []In, outs []Out) (replays int)
	queues []chan coalesced[In, Out]
	done   sync.WaitGroup

	// respPool recycles the per-request response channels (each carries
	// exactly one value per use, so a drained channel is safely reusable).
	respPool sync.Pool

	// onBatch, when set before any traffic, observes every batch's queue
	// and arrival order from the consumer goroutine — the equivalence
	// tests replay exactly the coalesced order serially.
	onBatch func(queue int, ins []In)

	mu sync.Mutex
	// senders counts submits that passed the closed check but have not
	// finished sending; close waits for them before closing the queues,
	// so no send can hit a closed channel.
	senders  sync.WaitGroup
	closed   bool
	requests int64
	batches  int64
	maxSeen  int
	sizes    map[int]int64 // batch size → occurrences, for the p50
	replays  int64
}

// coalesced is one queued request.
type coalesced[In, Out any] struct {
	in   In
	resp chan Out
}

// newCoalescer starts one consumer goroutine per queue.
func newCoalescer[In, Out any](queues int, cfg BatchConfig, run func(queue int, ins []In, outs []Out) int) *coalescer[In, Out] {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	c := &coalescer[In, Out]{
		cfg:    cfg,
		run:    run,
		queues: make([]chan coalesced[In, Out], queues),
		sizes:  make(map[int]int64),
	}
	for q := range c.queues {
		// Room for a few batches to queue while the previous one runs;
		// beyond that, submit blocks, which bounds the queued work.
		c.queues[q] = make(chan coalesced[In, Out], 4*cfg.MaxBatch)
		c.done.Add(1)
		go c.loop(q)
	}
	return c
}

// submit enqueues in on queue q and blocks for its result.
func (c *coalescer[In, Out]) submit(q int, in In) (Out, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		var zero Out
		return zero, ErrClosed
	}
	c.senders.Add(1)
	c.mu.Unlock()
	resp, _ := c.respPool.Get().(chan Out)
	if resp == nil {
		resp = make(chan Out, 1)
	}
	// The consumer drains its queue until the channel closes, so this send
	// always completes even when the queue is momentarily full.
	c.queues[q] <- coalesced[In, Out]{in: in, resp: resp}
	c.senders.Done()
	out := <-resp
	c.respPool.Put(resp)
	return out, nil
}

// close stops accepting work, waits for queued requests to be answered
// and stops every consumer. It is idempotent.
func (c *coalescer[In, Out]) close() {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if !already {
		c.senders.Wait()
		for _, q := range c.queues {
			close(q)
		}
	}
	c.done.Wait()
}

// stats snapshots the coalescing counters.
func (c *coalescer[In, Out]) stats() BatchStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := BatchStats{Requests: c.requests, Batches: c.batches, MaxBatch: c.maxSeen, ConflictReplays: c.replays}
	if c.batches > 0 {
		s.MeanSize = float64(c.requests) / float64(c.batches)
		s.P50Size = medianSize(c.sizes, c.batches)
	}
	return s
}

// medianSize returns the median batch size from a size histogram.
func medianSize(sizes map[int]int64, batches int64) int {
	keys := make([]int, 0, len(sizes))
	for k := range sizes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	half := (batches + 1) / 2
	var seen int64
	for _, k := range keys {
		seen += sizes[k]
		if seen >= half {
			return k
		}
	}
	return 0
}

// loop is queue q's single consumer.
func (c *coalescer[In, Out]) loop(q int) {
	defer c.done.Done()
	jobs := c.queues[q]
	batch := make([]coalesced[In, Out], 0, c.cfg.MaxBatch)
	ins := make([]In, c.cfg.MaxBatch)
	outs := make([]Out, c.cfg.MaxBatch)
	for {
		first, ok := <-jobs
		if !ok {
			return
		}
		batch, ok = c.fill(jobs, append(batch[:0], first))
		c.flush(q, batch, ins[:len(batch)], outs[:len(batch)])
		if !ok {
			return
		}
	}
}

// fill grows batch up to MaxBatch: first by draining what is already
// queued without blocking, then — when MaxWait is set — by waiting up to
// MaxWait for stragglers. Returns ok=false once the queue closed.
func (c *coalescer[In, Out]) fill(jobs chan coalesced[In, Out], batch []coalesced[In, Out]) ([]coalesced[In, Out], bool) {
	for len(batch) < c.cfg.MaxBatch {
		select {
		case j, ok := <-jobs:
			if !ok {
				return batch, false
			}
			batch = append(batch, j)
		default:
			if c.cfg.MaxWait <= 0 {
				return batch, true
			}
			return c.fillTimed(jobs, batch)
		}
	}
	return batch, true
}

// fillTimed continues filling until MaxWait elapses or the batch is full.
func (c *coalescer[In, Out]) fillTimed(jobs chan coalesced[In, Out], batch []coalesced[In, Out]) ([]coalesced[In, Out], bool) {
	timer := time.NewTimer(c.cfg.MaxWait)
	defer timer.Stop()
	for len(batch) < c.cfg.MaxBatch {
		select {
		case j, ok := <-jobs:
			if !ok {
				return batch, false
			}
			batch = append(batch, j)
		case <-timer.C:
			return batch, true
		}
	}
	return batch, true
}

// flush runs one batched pass over batch and fans the results out to the
// waiters. ins and outs are the consumer's scratch, sized to the batch.
func (c *coalescer[In, Out]) flush(q int, batch []coalesced[In, Out], ins []In, outs []Out) {
	var zero Out
	for i, j := range batch {
		ins[i], outs[i] = j.in, zero
	}
	if c.onBatch != nil {
		c.onBatch(q, ins)
	}
	replays := c.run(q, ins, outs)
	c.mu.Lock()
	c.requests += int64(len(batch))
	c.batches++
	c.sizes[len(batch)]++
	c.replays += int64(replays)
	c.maxSeen = max(c.maxSeen, len(batch))
	c.mu.Unlock()
	for i, j := range batch {
		j.resp <- outs[i]
	}
}
