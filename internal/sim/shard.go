package sim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// event is one VM arrival or departure in a shard's replay stream.
type event struct {
	sample  int
	arrival bool
	vm      *trace.VM
}

// shard is one independently replayable partition of the simulation: the
// servers of a single cluster plus the event stream of the VMs homed
// there. Clusters never share VMs in the scheduler, so shards exchange no
// state while ticking and replay concurrently; with cross-shard migration
// enabled they additionally trade migrated VMs at sample boundaries
// through the deterministic exchange step (docs/DESIGN.md §10).
type shard struct {
	index  int
	sched  *scheduler.Scheduler // nil when the cluster has no servers
	events []event
	// arrivals lists the VMs of events' arrival entries in event order:
	// the order in which step consumes their long-term predictions.
	arrivals []*trace.VM
}

// predictChunk is how many upcoming arrivals a shard predicts in one
// batched forest pass (docs/DESIGN.md §6 "Batched arrival prediction").
// On sim-sparse a batch of 16 already takes most of the gain over
// per-VM prediction and 64 takes more, while the buffer stays small.
const predictChunk = 64

// shardResult is the per-shard slice of Result, merged by merge().
type shardResult struct {
	requested      int
	placed         int
	rejected       int
	oversubscribed int
	serverTicks    int
	cpuViolations  int
	memViolations  int
	// usedByTick[t-TrainUpTo] is the shard's occupied-server count at
	// tick t; merge sums these element-wise before taking the fleet peak,
	// since per-shard peaks at different ticks must not be added.
	usedByTick []int
	outcomes   []VMOutcome
	// dataPlane carries the shard's fleet-memory aggregates (nil when
	// Config.DataPlane is off).
	dataPlane *DataPlaneResult
	// faults accumulates the shard's failure-domain counters (all zero
	// when no fault schedule is active).
	faults FaultResult
}

// buildShards partitions the fleet into per-cluster shards and routes each
// VM's arrival/departure events to its home cluster's shard. VM cluster
// indices are folded modulo the fleet's cluster count so traces generated
// for the default ten clusters replay on smaller fleets too.
func buildShards(tr *trace.Trace, fleet *cluster.Fleet, cfg Config) ([]*shard, error) {
	groups := fleet.Shards()
	shards := make([]*shard, len(groups))
	for i, servers := range groups {
		sh := &shard{index: i}
		if len(servers) > 0 {
			sched, err := scheduler.NewOverServers(servers, cfg.Windows)
			if err != nil {
				return nil, err
			}
			sh.sched = sched
		}
		shards[i] = sh
	}
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.End <= cfg.TrainUpTo {
			continue
		}
		at := vm.Start
		if at < cfg.TrainUpTo {
			at = cfg.TrainUpTo
		}
		sh := shards[shardIndex(vm, len(shards))]
		sh.events = append(sh.events, event{sample: at, arrival: true, vm: vm})
		sh.events = append(sh.events, event{sample: vm.End, arrival: false, vm: vm})
	}
	for _, sh := range shards {
		evs := sh.events
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].sample != evs[j].sample {
				return evs[i].sample < evs[j].sample
			}
			// Departures before arrivals at the same tick frees capacity first.
			return !evs[i].arrival && evs[j].arrival
		})
		for _, ev := range evs {
			if ev.arrival {
				sh.arrivals = append(sh.arrivals, ev.vm)
			}
		}
	}
	return shards, nil
}

func shardIndex(vm *trace.VM, n int) int {
	c := vm.Cluster % n
	if c < 0 {
		c += n
	}
	return c
}

// placedRec tracks one placed VM's incremental-accounting state.
type placedRec struct {
	vm  *trace.VM
	srv int // index into the shard scheduler's server slice
	// last is the demand vector currently accumulated into the server's
	// running total for this VM.
	last resources.Vector
	// synced is set once last reflects a delta pass; until then the
	// unchanged-sample fast path must not fire (a VM arriving mid-life
	// can have an unchanged but nonzero sample at its arrival tick).
	synced bool
	// changes and nextCh drive the event core: changes is the VM's
	// utilization change-point list (trace.VM.ChangePoints, computed once
	// at placement) and nextCh the cursor of the next unscheduled one.
	// Unused by the dense core.
	changes []int32
	nextCh  int
}

// migRequest pairs a cross-shard migration request with the trace VM it
// moves, so the destination shard can keep replaying its utilization
// series and schedule its departure. The change-point cursor rides along
// so the destination's event queue resumes where the source's left off
// without recomputing the list.
type migRequest struct {
	core.MigrationRequest
	vm      *trace.VM
	changes []int32
	nextCh  int
}

// shardState is one shard's live replay state. It persists across ticks
// so Run can advance every shard one 5-minute sample in parallel, apply
// the cross-shard migration exchange at the boundary, and continue —
// replacing the former run-to-completion loop. All mutation is
// single-threaded: inside step by the shard's worker, inside the
// add/remove helpers by the serial exchange.
type shardState struct {
	sh    *shard
	tr    *trace.Trace
	model *predict.LongTerm
	cfg   Config
	sr    *shardResult

	servers  []*scheduler.ServerState
	sdp      *shardDataPlane
	demand   []resources.Vector
	vmCount  []int
	cpuLimit []float64
	recs     []placedRec
	pos      map[int]int // VM ID -> index into recs
	used     int
	ei       int
	zero     resources.Vector

	// preds and oks hold the long-term predictions of the current chunk
	// of predictChunk arrivals, made ahead of time in one batched pass;
	// next indexes sh.arrivals at the arrival step consumes next.
	// Predictions depend only on the model, the trace and the VM, never
	// on replay state, so making them early changes nothing. A refill
	// overwrites the entries, not the window slices they point to
	// (PredictBatchInto allocates those per call), so placed CVMs keep
	// theirs. Unused without a model.
	preds []coachvm.Prediction
	oks   []bool
	next  int

	// extra holds migration-injected departure events for VMs that moved
	// in from another shard, kept sorted by (sample, vm.ID); xi is the
	// cursor. Their original departure events still sit in the source
	// shard's stream, where they no-op (the VM is no longer tracked
	// there).
	extra []event
	xi    int
	// outbox collects this tick's cross-shard migration requests for the
	// sample-boundary exchange.
	outbox []migRequest

	// fEvents is the shard's slice of the compiled fault schedule (nil
	// without faults); fi is the applied-events cursor.
	fEvents []fault.Event
	fi      int

	// Event-core state (nil/unused under EngineDense). queue holds one
	// pending utilization-change event per placed VM; due, slots and
	// slotPos are per-tick scratch — slots collects the VM ids due a
	// demand re-sync (by id, not record index: crash evictions can
	// swap-remove records between a slot's append and the delta pass),
	// slotPos their resolved record positions. Contention is settled
	// incrementally: violCPU / violMem mirror each server's
	// contended-or-not state with running counts, and dirty lists the
	// servers whose demand, backing or population changed this tick and
	// need their flags re-derived.
	queue     *eventQueue
	due       []int
	slots     []int
	slotPos   []int
	violCPU   []bool
	violMem   []bool
	cpuViol   int
	memViol   int
	dirty     []int
	dirtyFlag []bool
}

// newShardState builds a shard's replay state at the start of the
// evaluation period.
func newShardState(sh *shard, tr *trace.Trace, model *predict.LongTerm, cfg Config) (*shardState, error) {
	ticks := tr.Horizon - cfg.TrainUpTo
	st := &shardState{
		sh:    sh,
		tr:    tr,
		model: model,
		cfg:   cfg,
		sr:    &shardResult{usedByTick: make([]int, ticks)},
		pos:   make(map[int]int),
	}
	if sh.sched != nil {
		st.servers = sh.sched.Servers()
	}
	if model != nil {
		st.preds = make([]coachvm.Prediction, 0, predictChunk)
		st.oks = make([]bool, 0, predictChunk)
	}
	if cfg.DataPlane {
		sdp, err := newShardDataPlane(sh, cfg)
		if err != nil {
			return nil, err
		}
		st.sdp = sdp
	}
	st.demand = make([]resources.Vector, len(st.servers))
	st.vmCount = make([]int, len(st.servers))
	st.cpuLimit = make([]float64, len(st.servers))
	for i, srv := range st.servers {
		st.cpuLimit[i] = cfg.CPUContentionFrac * srv.Server.Capacity()[resources.CPU]
	}
	if cfg.Engine == EngineEvent {
		st.queue = newEventQueue(cfg.TrainUpTo, tr.Horizon)
		st.violCPU = make([]bool, len(st.servers))
		st.violMem = make([]bool, len(st.servers))
		st.dirtyFlag = make([]bool, len(st.servers))
	}
	st.fEvents = cfg.Faults.ForShard(sh.index)
	return st, nil
}

// touchServer marks a server's contention flags stale (event core): its
// demand, backed capacity or population changed this tick.
func (st *shardState) touchServer(srv int) {
	if st.dirtyFlag == nil || st.dirtyFlag[srv] {
		return
	}
	st.dirtyFlag[srv] = true
	st.dirty = append(st.dirty, srv)
}

// scheduleNext queues r's next utilization-change event after tick t.
// The cursor is left on the scheduled change point; when that event fires
// the advance loop steps past it, so each VM has at most one pending
// event. Push bounds-checks the horizon, so late change points of VMs
// outliving the trace drop out naturally.
func (st *shardState) scheduleNext(r *placedRec, t int) {
	rel := t - r.vm.Start
	for r.nextCh < len(r.changes) && int(r.changes[r.nextCh]) <= rel {
		r.nextCh++
	}
	if r.nextCh < len(r.changes) {
		st.queue.Push(r.vm.Start+int(r.changes[r.nextCh]), r.vm.ID)
	}
}

// step replays one evaluation tick t: events, the incremental demand
// delta pass, the data-plane tick with migration resolution, and the
// contention counters. It is the single-threaded hot loop; Run schedules
// one step per shard per tick (or whole shards when no exchange is
// possible) on the worker pool.
//
// Contention is accounted incrementally: each placed VM's current demand
// contribution is kept in its record and in a running per-server demand
// vector, updated on arrival/departure/migration and by a per-tick delta
// pass that touches only VMs whose utilization sample changed — O(placed
// deltas + occupied servers) per tick instead of a full rebuild. All
// updates happen in deterministic (event/slice) order, so float sums are
// bit-reproducible across runs and worker counts.
func (st *shardState) step(t int) error {
	// Fault events first: a server crashing this tick evicts its VMs
	// before the tick's departures fire and its recovered capacity (or
	// its absence) shapes this tick's placements.
	if st.fEvents != nil {
		if err := st.applyFaults(t); err != nil {
			return err
		}
	}
	// Migration-injected departures next: like the event stream's
	// departures-before-arrivals discipline, they free capacity before
	// this tick's arrivals place.
	for st.xi < len(st.extra) && st.extra[st.xi].sample == t {
		ev := st.extra[st.xi]
		st.xi++
		if st.removeTracked(ev.vm.ID, true) {
			st.sh.sched.Remove(ev.vm.ID)
		}
	}
	for st.ei < len(st.sh.events) && st.sh.events[st.ei].sample == t {
		ev := st.sh.events[st.ei]
		st.ei++
		if !ev.arrival {
			// No-op when the VM was rejected on arrival or emigrated to
			// another shard (its departure fires there instead).
			if st.removeTracked(ev.vm.ID, true) {
				st.sh.sched.Remove(ev.vm.ID)
			}
			continue
		}
		st.sr.requested++
		pred, ok, err := st.nextPrediction(ev.vm)
		if err != nil {
			return err
		}
		cvm, err := scheduler.BuildCVM(st.cfg.Policy, ev.vm.ID, ev.vm.Alloc, pred, ok, st.cfg.Windows)
		if err != nil {
			return err
		}
		if st.sh.sched == nil {
			st.sr.rejected++
			continue
		}
		srv, placedOK := st.sh.sched.Place(cvm)
		if !placedOK {
			st.sr.rejected++
			continue
		}
		st.sr.placed++
		if st.vmCount[srv] == 0 {
			st.used++
		}
		st.vmCount[srv]++
		st.pos[ev.vm.ID] = len(st.recs)
		st.recs = append(st.recs, placedRec{vm: ev.vm, srv: srv})
		if st.queue != nil {
			// The event core applies the new record's demand this tick via
			// its slot; scheduleNext (in the delta pass) queues the rest of
			// its life.
			st.recs[len(st.recs)-1].changes = ev.vm.ChangePoints()
			st.slots = append(st.slots, ev.vm.ID)
			st.touchServer(srv)
		}
		if st.sdp != nil && st.sdp.dp != nil {
			err := st.sdp.dp.Attach(srv, ev.vm.ID,
				cvm.Alloc[resources.Memory], cvm.Guaranteed[resources.Memory])
			if err != nil {
				return err
			}
		}
		if ok && st.cfg.Policy != scheduler.PolicyNone {
			st.sr.oversubscribed++
			st.sr.outcomes = append(st.sr.outcomes, outcome(ev.vm, cvm, st.cfg))
		}
	}

	if st.queue != nil {
		st.eventDeltaPass(t)
	} else {
		st.denseDeltaPass(t)
	}

	if st.sdp != nil {
		if err := st.dataPlaneTick(t - st.cfg.TrainUpTo); err != nil {
			return err
		}
	}

	st.sr.usedByTick[t-st.cfg.TrainUpTo] = st.used
	if st.queue != nil {
		st.settleContention()
	} else {
		st.denseContention()
	}
	return nil
}

// nextPrediction returns the long-term prediction of vm, which must be
// the shard's next arrival. At the start of each chunk it predicts the
// chunk's predictChunk arrivals with one PredictBatchInto call — a
// level-synchronous matrix pass per forest instead of one pointer walk
// per (resource, window, forest) and VM — bit-identical to per-VM
// Predict. Filling here, not in newShardState, keeps the batches on the
// worker pool. An arrival out of step with the cursor is an error, not
// a silently misattributed prediction. Without a model every VM is
// unpredicted (ok false).
func (st *shardState) nextPrediction(vm *trace.VM) (coachvm.Prediction, bool, error) {
	if st.model == nil {
		return coachvm.Prediction{}, false, nil
	}
	i := st.next
	if i >= len(st.sh.arrivals) || st.sh.arrivals[i] != vm {
		return coachvm.Prediction{}, false, fmt.Errorf(
			"sim: shard %d: arrival of VM %d out of step with the prediction cursor", st.sh.index, vm.ID)
	}
	if i%predictChunk == 0 {
		chunk := st.sh.arrivals[i:min(i+predictChunk, len(st.sh.arrivals))]
		st.preds, st.oks = st.preds[:len(chunk)], st.oks[:len(chunk)]
		st.model.PredictBatchInto(st.tr, chunk, st.preds, st.oks)
	}
	st.next++
	return st.preds[i%predictChunk], st.oks[i%predictChunk], nil
}

// denseDeltaPass is the reference demand pass: visit every placed VM,
// fold in its demand change if this tick's utilization sample differs.
// The same change drives the VM's working set on the data plane, so WSS
// updates ride the delta fast path.
func (st *shardState) denseDeltaPass(t int) {
	for i := range st.recs {
		r := &st.recs[i]
		if r.synced && utilUnchanged(r.vm, t) {
			continue
		}
		cur := r.vm.DemandAt(t)
		if cur != r.last {
			st.demand[r.srv] = st.demand[r.srv].Add(cur.Sub(r.last))
			r.last = cur
			if st.sdp != nil && st.sdp.dp != nil {
				st.sdp.dp.SetWSS(r.vm.ID, cur[resources.Memory])
			}
		}
		r.synced = true
	}
	if st.cfg.VisitCounter != nil {
		atomic.AddInt64(st.cfg.VisitCounter, int64(len(st.recs)))
	}
}

// eventDeltaPass is the event core's demand pass: only VMs with a
// pending change event (popped from the calendar queue), placed this
// tick, or re-admitted by a crash are visited. Slots carry VM ids and
// resolve to record positions here — a crash eviction swap-removes
// records mid-tick, so positions captured earlier could go stale — then
// apply in ascending position order, the same order the dense pass
// walks st.recs, with the same cur != last guard, so the float
// accumulation into st.demand is bit-identical: every slot the dense
// pass would have updated has a change point here (utilUnchanged ⇔ no
// change point at this offset), and spurious events for unchanged
// demand no-op on the guard. Duplicate positions (a re-admitted VM
// whose stale queue event also popped) are deduped after the sort.
func (st *shardState) eventDeltaPass(t int) {
	st.due = st.queue.PopDue(t, st.due[:0])
	// st.slots already holds this tick's placements and re-admissions.
	st.slots = append(st.slots, st.due...)
	st.slotPos = st.slotPos[:0]
	for _, id := range st.slots {
		// An id missing from pos is a stale event: the VM departed,
		// emigrated to another shard, or was lost to a crash. Ids are
		// never reused, so the map lookup is a complete filter and events
		// need no cancellation.
		if p, ok := st.pos[id]; ok {
			st.slotPos = append(st.slotPos, p)
		}
	}
	sort.Ints(st.slotPos)
	applied, prev := 0, -1
	for _, si := range st.slotPos {
		if si == prev {
			continue
		}
		prev = si
		applied++
		r := &st.recs[si]
		cur := r.vm.DemandAt(t)
		if cur != r.last {
			st.demand[r.srv] = st.demand[r.srv].Add(cur.Sub(r.last))
			r.last = cur
			st.touchServer(r.srv)
			if st.sdp != nil && st.sdp.dp != nil {
				st.sdp.dp.SetWSS(r.vm.ID, cur[resources.Memory])
			}
		}
		r.synced = true
		st.scheduleNext(r, t)
	}
	if st.cfg.VisitCounter != nil {
		atomic.AddInt64(st.cfg.VisitCounter, int64(applied))
	}
	st.slots = st.slots[:0]
}

// denseContention is the reference per-tick contention accounting: scan
// every server.
func (st *shardState) denseContention() {
	for i := range st.servers {
		if st.vmCount[i] == 0 {
			continue
		}
		st.sr.serverTicks++
		if st.demand[i][resources.CPU] > st.cpuLimit[i] {
			st.sr.cpuViolations++
		}
		// Memory contention: utilized memory beyond the physically
		// backed amount pages to disk (§4.3).
		if st.demand[i][resources.Memory] > st.servers[i].Pool.Backed()[resources.Memory]+1e-9 {
			st.sr.memViolations++
		}
	}
}

// settleContention is the event core's contention accounting: servers
// whose demand, backed capacity or population changed this tick were
// marked dirty; re-derive just their contended/not flags and keep
// running counts. An untouched server's inputs are all unchanged —
// every mutation path (delta, placement, removal, migration landing,
// exchange) marks the server — so its flags from the previous tick
// still hold and the counts equal the dense scan's.
func (st *shardState) settleContention() {
	for _, i := range st.dirty {
		st.dirtyFlag[i] = false
		occupied := st.vmCount[i] > 0
		cpu := occupied && st.demand[i][resources.CPU] > st.cpuLimit[i]
		mem := occupied && st.demand[i][resources.Memory] > st.servers[i].Pool.Backed()[resources.Memory]+1e-9
		if cpu != st.violCPU[i] {
			st.violCPU[i] = cpu
			if cpu {
				st.cpuViol++
			} else {
				st.cpuViol--
			}
		}
		if mem != st.violMem[i] {
			st.violMem[i] = mem
			if mem {
				st.memViol++
			} else {
				st.memViol--
			}
		}
	}
	st.dirty = st.dirty[:0]
	st.sr.serverTicks += st.used
	st.sr.cpuViolations += st.cpuViol
	st.sr.memViolations += st.memViol
}

// dataPlaneTick advances the shard's servers one sample and resolves
// completed live migrations through the shard's migration engine:
// same-shard landings move bookkeeping, memory and the incremental
// accounting together; cross-shard requests go to the outbox for the
// sample-boundary exchange. t is the 0-based evaluation tick.
func (st *shardState) dataPlaneTick(t int) error {
	s := st.sdp
	if s.dp == nil {
		return nil
	}
	frames, completed, err := s.dp.Tick(dpTickSeconds)
	if err != nil {
		return err
	}
	if s.sparse {
		s.observeSparse(frames)
	} else {
		s.res.observe(frames)
	}
	plans, reqs, err := s.eng.Resolve(t, completed)
	if err != nil {
		return err
	}
	for _, p := range plans {
		st.applyPlan(p)
	}
	for _, r := range reqs {
		rec := &st.recs[st.pos[r.VMID]]
		st.outbox = append(st.outbox, migRequest{
			MigrationRequest: r,
			vm:               rec.vm,
			changes:          rec.changes,
			nextCh:           rec.nextCh,
		})
	}
	s.res.mark(t, s.dp.Counters())
	return nil
}

// applyPlan folds a landed migration into the incremental accounting:
// the VM's demand contribution moves from its old server's running total
// to the new one's.
func (st *shardState) applyPlan(p core.MigrationPlan) {
	dp := st.sdp.res
	if p.Relanded {
		dp.FailedMigrations++
		dp.WarmArrivedGB += p.WarmGB
		return
	}
	dp.SameShardMigrations++
	dp.WarmArrivedGB += p.WarmGB
	r := &st.recs[st.pos[p.VMID]]
	st.demand[p.From] = st.demand[p.From].Sub(r.last)
	st.vmCount[p.From]--
	if st.vmCount[p.From] == 0 {
		st.used--
		st.demand[p.From] = st.zero
	}
	if st.vmCount[p.To] == 0 {
		st.used++
	}
	st.vmCount[p.To]++
	st.demand[p.To] = st.demand[p.To].Add(r.last)
	r.srv = p.To
	st.touchServer(p.From)
	st.touchServer(p.To)
}

// removeTracked drops a VM from the incremental accounting (and, when
// detachMemory is set, from the data plane). It returns false when the
// shard does not track the VM — rejected on arrival, or emigrated.
func (st *shardState) removeTracked(vmID int, detachMemory bool) bool {
	p, ok := st.pos[vmID]
	if !ok {
		return false
	}
	if detachMemory && st.sdp != nil && st.sdp.dp != nil {
		st.sdp.dp.Detach(vmID)
	}
	r := st.recs[p]
	st.demand[r.srv] = st.demand[r.srv].Sub(r.last)
	st.vmCount[r.srv]--
	if st.vmCount[r.srv] == 0 {
		st.used--
		// Reset to cancel residual float drift from the incremental adds
		// and subtracts.
		st.demand[r.srv] = st.zero
	}
	st.touchServer(r.srv)
	last := len(st.recs) - 1
	st.recs[p] = st.recs[last]
	st.pos[st.recs[p].vm.ID] = p
	st.recs = st.recs[:last]
	delete(st.pos, vmID)
	return true
}

// addImmigrated registers a cross-shard-migrated VM in this shard's
// accounting after the exchange committed it: a fresh unsynced record
// (the next delta pass folds its demand in) plus an injected departure
// event at the VM's end-of-life.
func (st *shardState) addImmigrated(rq migRequest, server int) {
	if st.vmCount[server] == 0 {
		st.used++
	}
	st.vmCount[server]++
	st.pos[rq.VMID] = len(st.recs)
	st.recs = append(st.recs, placedRec{
		vm: rq.vm, srv: server,
		changes: rq.changes, nextCh: rq.nextCh,
	})
	st.insertExtra(event{sample: rq.vm.End, arrival: false, vm: rq.vm})
	if st.queue != nil {
		// Re-sync on the very next tick — the dense core's unsynced
		// record is picked up by its next full pass; the event core gets
		// the same effect from an explicit event. The fired event's
		// scheduleNext then resumes the carried change-point cursor.
		st.queue.Push(rq.Tick+st.cfg.TrainUpTo+1, rq.VMID)
		st.touchServer(server)
	}
}

// insertExtra queues a migration-injected event, keeping the pending
// suffix sorted by (sample, vm.ID) so replay order stays deterministic.
func (st *shardState) insertExtra(ev event) {
	i := st.xi
	for i < len(st.extra) &&
		(st.extra[i].sample < ev.sample ||
			(st.extra[i].sample == ev.sample && st.extra[i].vm.ID < ev.vm.ID)) {
		i++
	}
	st.extra = append(st.extra, event{})
	copy(st.extra[i+1:], st.extra[i:])
	st.extra[i] = ev
}

// finish seals the shard's result after the last tick.
func (st *shardState) finish() *shardResult {
	if st.sdp != nil {
		st.sr.dataPlane = st.sdp.result()
	}
	return st.sr
}

// utilUnchanged reports whether every resource's utilization sample at
// trace tick t equals the previous tick's, in which case the VM's demand —
// and therefore its server's running total — needs no update.
func utilUnchanged(vm *trace.VM, t int) bool {
	i := t - vm.Start
	if i <= 0 {
		return false
	}
	for _, k := range resources.Kinds {
		s := vm.Util[k]
		if i >= len(s) {
			// Outside the recorded series both samples read as zero
			// unless i-1 is the final sample.
			if i-1 < len(s) && s[i-1] != 0 {
				return false
			}
			continue
		}
		if s[i] != s[i-1] {
			return false
		}
	}
	return true
}
