// Package predict implements Coach's two predictors:
//
//   - The long-term, cluster-level model (§3.3): a random-forest regressor
//     that predicts per-time-window percentile and maximum utilization for
//     each resource of a new VM from VM- and customer-specific features,
//     quantized to 5% buckets. It feeds the scheduling policy.
//   - The local, server-level two-level model (§3.4): an EWMA forecasting
//     the next 20 seconds and an online-trained LSTM forecasting the next
//     5 minutes. It feeds proactive contention mitigation.
package predict

import (
	"fmt"
	"math"
	"sync"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/mlforest"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// LongTermConfig configures training of the cluster-level model.
type LongTermConfig struct {
	// Windows is the per-day time-window split (Coach default: 6x4h).
	Windows timeseries.Windows
	// Percentile is the PX used for the guaranteed portion (default 95).
	Percentile float64
	// Forest configures each per-resource regressor.
	Forest mlforest.ForestConfig
	// MinHistory is the minimum number of prior same-subscription VMs
	// required before Coach will oversubscribe a VM (§3.3: "If there is
	// insufficient data to predict a VM, we conservatively do not
	// oversubscribe it").
	MinHistory int
	// MinSamples is the minimum series length (in 5-minute samples) for a
	// VM to contribute training rows; defaults to one day.
	MinSamples int
	// SafetyBuckets is the number of extra 5% buckets added on top of
	// each quantized prediction. Coach prioritizes protecting workload
	// performance over savings (G2, §3.3): under-predictions are far more
	// costly than over-predictions, so the deployed configuration biases
	// the regressor's point estimate upward by one bucket.
	SafetyBuckets int
}

// DefaultLongTermConfig returns Coach's deployed configuration: P95
// predictions over six 4-hour windows (§3.3 "Coach configuration").
func DefaultLongTermConfig() LongTermConfig {
	return LongTermConfig{
		Windows:       timeseries.Windows{PerDay: 6},
		Percentile:    95,
		Forest:        mlforest.DefaultForestConfig(),
		MinHistory:    3,
		MinSamples:    timeseries.SamplesPerDay,
		SafetyBuckets: 1,
	}
}

// subscriptionHistory aggregates the observed behaviour of a subscription's
// earlier VMs: the model's customer-specific features (§3.3).
type subscriptionHistory struct {
	count    int
	meanPeak [resources.NumKinds]float64 // mean lifetime max utilization
	meanMean [resources.NumKinds]float64 // mean of mean utilization
}

// featureDim is the length of the model's feature vector. Layout:
//
//	0: cores                5: weekday of allocation (0-6)
//	1: memory GB            6: window index
//	2: GB per core          7: history count (log1p)
//	3: offering (0/1)       8: history mean peak (this resource)
//	4: subscription type    9: history mean of means (this resource)
const featureDim = 10

// LongTerm is a trained cluster-level utilization predictor.
type LongTerm struct {
	cfg  LongTermConfig
	upTo int // end of the training period, in trace samples
	// pctForest[k] predicts the PX utilization of resource k in a window;
	// maxForest[k] predicts the window maximum.
	pctForest [resources.NumKinds]*mlforest.Forest
	maxForest [resources.NumKinds]*mlforest.Forest
	history   map[int]*subscriptionHistory
	trainRows int
	// scratch recycles PredictBatch working buffers across batches (the
	// serving hot path calls PredictBatch continuously); see batchScratch.
	scratch sync.Pool
}

// batchScratch is the reusable working set of one PredictBatch call: the
// feature-major input matrix for the level-synchronous forest path, a
// staging row for assembling one feature vector at a time, and the raw
// forest outputs. Only buffers not retained by the returned Predictions
// live here.
type batchScratch struct {
	m      mlforest.RowMatrix
	row    []float64 // one featureDim staging row scattered into m
	pctOut []float64
	maxOut []float64
}

// grow resizes the scratch for n rows of featureDim features. The matrix
// reset reuses its flat backing buffer across batches.
func (sc *batchScratch) grow(n int) {
	sc.m.Reset(n, featureDim)
	if sc.row == nil {
		sc.row = make([]float64, featureDim)
	}
	if cap(sc.pctOut) < n {
		sc.pctOut = make([]float64, n)
		sc.maxOut = make([]float64, n)
	}
	sc.pctOut = sc.pctOut[:n]
	sc.maxOut = sc.maxOut[:n]
}

// TrainLongTerm fits the model on every VM of tr that ends (or is fully
// observed) before upToSample — the paper trains on the first week and
// evaluates on the second (§2.3, Fig. 12). Utilization after upToSample is
// never consulted.
func TrainLongTerm(tr *trace.Trace, upToSample int, cfg LongTermConfig) (*LongTerm, error) {
	if err := cfg.Windows.Validate(); err != nil {
		return nil, err
	}
	if cfg.Percentile <= 0 || cfg.Percentile > 100 {
		return nil, fmt.Errorf("predict: percentile %f outside (0,100]", cfg.Percentile)
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = timeseries.SamplesPerDay
	}

	lt := &LongTerm{cfg: cfg, upTo: upToSample, history: make(map[int]*subscriptionHistory)}

	// First pass: accumulate subscription history over the training period.
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		visible := visibleSamples(vm, upToSample)
		if visible < cfg.MinSamples {
			continue
		}
		h := lt.history[vm.Subscription]
		if h == nil {
			h = &subscriptionHistory{}
			lt.history[vm.Subscription] = h
		}
		for _, k := range resources.Kinds {
			s := vm.Util[k][:visible]
			h.meanPeak[k] += s.Max()
			h.meanMean[k] += s.Mean()
		}
		h.count++
	}
	for _, h := range lt.history {
		for _, k := range resources.Kinds {
			h.meanPeak[k] /= float64(h.count)
			h.meanMean[k] /= float64(h.count)
		}
	}

	// Second pass: build one training row per (VM, window) with targets
	// from the observed series. The percentile and max forests share each
	// resource's feature rows — only their target vectors differ — so the
	// rows are kept once per resource and both forests train on one
	// columnar matrix below.
	var featRows [resources.NumKinds][][]float64
	var pctTargets, maxTargets [resources.NumKinds][]float64
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		visible := visibleSamples(vm, upToSample)
		if visible < cfg.MinSamples {
			continue
		}
		for _, k := range resources.Kinds {
			s := vm.Util[k][:visible]
			pct := s.WindowPercentile(cfg.Windows, cfg.Percentile)
			mx := s.LifetimeWindowMax(cfg.Windows)
			for t := 0; t < cfg.Windows.PerDay; t++ {
				featRows[k] = append(featRows[k], lt.features(tr, vm, k, t))
				pctTargets[k] = append(pctTargets[k], pct[t])
				maxTargets[k] = append(maxTargets[k], mx[t])
				lt.trainRows++
			}
		}
	}

	for _, k := range resources.Kinds {
		if len(featRows[k]) == 0 {
			return nil, fmt.Errorf("predict: no training rows for %v (horizon %d, upTo %d)", k, tr.Horizon, upToSample)
		}
		// One transpose + argsort per resource, shared by both forests.
		m, err := mlforest.NewMatrix(featRows[k])
		if err != nil {
			return nil, err
		}
		fc := cfg.Forest
		fc.Seed = cfg.Forest.Seed + int64(k)
		pf, err := mlforest.TrainOnMatrix(m, pctTargets[k], fc)
		if err != nil {
			return nil, err
		}
		fc.Seed += 100
		mf, err := mlforest.TrainOnMatrix(m, maxTargets[k], fc)
		if err != nil {
			return nil, err
		}
		lt.pctForest[k] = pf
		lt.maxForest[k] = mf
	}
	return lt, nil
}

func visibleSamples(vm *trace.VM, upToSample int) int {
	if vm.Start >= upToSample {
		return 0
	}
	end := vm.End
	if end > upToSample {
		end = upToSample
	}
	return end - vm.Start
}

// features builds the feature vector for one (VM, resource, window).
func (lt *LongTerm) features(tr *trace.Trace, vm *trace.VM, k resources.Kind, window int) []float64 {
	f := make([]float64, featureDim)
	lt.featuresInto(f, tr, vm, k, window)
	return f
}

// featuresInto fills a caller-provided featureDim-length buffer; the
// batched prediction path uses it to carve rows out of one allocation.
func (lt *LongTerm) featuresInto(f []float64, tr *trace.Trace, vm *trace.VM, k resources.Kind, window int) {
	f[0] = vm.Cores()
	f[1] = vm.MemoryGB()
	f[2] = vm.MemoryGB() / vm.Cores()
	f[3] = float64(vm.Offering)
	f[4] = float64(tr.Subscriptions[vm.Subscription].Type)
	f[5] = float64(tr.WeekdayAt(vm.Start))
	f[6] = float64(window)
	if h := lt.history[vm.Subscription]; h != nil {
		f[7] = math.Log1p(float64(h.count))
		f[8] = h.meanPeak[k]
		f[9] = h.meanMean[k]
	} else {
		f[7], f[8], f[9] = 0, 0, 0
	}
}

// HistoryCount returns how many prior VMs the model saw for a subscription.
func (lt *LongTerm) HistoryCount(subscription int) int {
	if h := lt.history[subscription]; h != nil {
		return h.count
	}
	return 0
}

// TrainRows returns the number of (VM, resource, window) training rows.
func (lt *LongTerm) TrainRows() int { return lt.trainRows }

// InferenceStats sums the inference counters of every underlying forest:
// total ensemble passes, feature rows evaluated, and rows rejected for
// feature-dimension mismatch (any nonzero MismatchedRows means a
// feature-schema bug that would otherwise read as confident
// zero-utilization predictions).
func (lt *LongTerm) InferenceStats() mlforest.Stats {
	var s mlforest.Stats
	for _, k := range resources.Kinds {
		for _, f := range [...]*mlforest.Forest{lt.pctForest[k], lt.maxForest[k]} {
			if f == nil {
				continue
			}
			fs := f.Stats()
			s.Passes += fs.Passes
			s.Rows += fs.Rows
			s.MismatchedRows += fs.MismatchedRows
		}
	}
	return s
}

// MemoryBytes estimates the resident model size (§4.5 reports 186MB at
// production scale; ours scales with trace size).
func (lt *LongTerm) MemoryBytes() int {
	var total int
	for _, k := range resources.Kinds {
		if lt.pctForest[k] != nil {
			total += lt.pctForest[k].MemoryBytes()
		}
		if lt.maxForest[k] != nil {
			total += lt.maxForest[k].MemoryBytes()
		}
	}
	return total
}

// Predict returns the per-window prediction for a VM, quantized up to 5%
// buckets. ok is false when the VM's subscription lacks sufficient history,
// in which case the caller must not oversubscribe the VM (§3.3).
//
// A VM that has already run for at least a day within the training period
// is predicted from its own observed utilization (the platform telemetry
// keeps accumulating per-VM data, and VM behaviour is consistent day over
// day — Fig. 9); only fresh VMs fall back to the cross-VM forest.
//
// Predict is a batch of one on the PredictBatchInto path: even a single
// VM's 6 window rows per forest go faster through one matrix pass than
// through one pointer walk each (docs/DESIGN.md §6).
func (lt *LongTerm) Predict(tr *trace.Trace, vm *trace.VM) (pred coachvm.Prediction, ok bool) {
	vms := [1]*trace.VM{vm}
	var preds [1]coachvm.Prediction
	var oks [1]bool
	lt.PredictBatchInto(tr, vms[:], preds[:], oks[:])
	return preds[0], oks[0]
}

// PredictBatch predicts a batch of VMs in single forest passes. The
// results are exactly those of walking each VM's feature rows one by one
// through mlforest.Forest.Predict — bit-identical, since PredictMatrix
// accumulates per-row tree contributions in the same order as the walk —
// but all fresh VMs' (window, resource) feature rows are evaluated
// through each forest in one level-synchronous matrix pass, advancing
// the whole batch one tree level at a time instead of pointer-chasing
// rows one by one, and each VM's prediction windows are backed by shared
// flat allocations. This is the inference path of the serving layer
// (internal/serve), which coalesces concurrent prediction requests into
// such batches, and of the simulator, which predicts each shard's
// arrivals in chunks ahead of replay.
func (lt *LongTerm) PredictBatch(tr *trace.Trace, vms []*trace.VM) ([]coachvm.Prediction, []bool) {
	preds := make([]coachvm.Prediction, len(vms))
	oks := make([]bool, len(vms))
	lt.PredictBatchInto(tr, vms, preds, oks)
	return preds, oks
}

// PredictBatchInto is PredictBatch writing into caller-owned slices (both
// len(vms)), so a steady-state caller — serve's admission batcher reuses
// per-shard scratch — pays no per-batch result allocation beyond the
// prediction windows themselves. Entries are fully overwritten.
func (lt *LongTerm) PredictBatchInto(tr *trace.Trace, vms []*trace.VM, preds []coachvm.Prediction, oks []bool) {
	// First pass: resolve VMs predictable from their own observed series
	// or rejected for insufficient history; collect the forest-path rest.
	var fresh []int // indexes into vms needing a forest evaluation
	for i, vm := range vms {
		// Fully overwrite the caller's (possibly reused) entries.
		preds[i] = coachvm.Prediction{Windows: lt.cfg.Windows, Percentile: lt.cfg.Percentile}
		oks[i] = false
		if visible := visibleSamples(vm, lt.upTo); visible >= lt.cfg.MinSamples {
			for _, k := range resources.Kinds {
				s := vm.Util[k][:visible]
				preds[i].Pct[k] = quantizeAll(s.WindowPercentile(lt.cfg.Windows, lt.cfg.Percentile), lt.cfg.SafetyBuckets)
				preds[i].Max[k] = quantizeAll(s.LifetimeWindowMax(lt.cfg.Windows), lt.cfg.SafetyBuckets)
			}
			preds[i].Clamp()
			oks[i] = true
			continue
		}
		if lt.HistoryCount(vm.Subscription) < lt.cfg.MinHistory {
			continue
		}
		oks[i] = true
		fresh = append(fresh, i)
	}
	if len(fresh) == 0 {
		return
	}

	// Second pass: one batched ensemble evaluation per (resource, target)
	// over every fresh VM's windows, level-synchronously through the
	// forests' breadth-first layout. Features assemble into a feature-major
	// matrix carved from a pooled flat buffer (recycled across batches);
	// only the per-VM window slices handed back inside Predictions are
	// freshly allocated.
	w := lt.cfg.Windows.PerDay
	n := len(fresh) * w
	sc, _ := lt.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	sc.grow(n)
	defer lt.scratch.Put(sc)
	for _, k := range resources.Kinds {
		for bi, vi := range fresh {
			vm := vms[vi]
			for t := 0; t < w; t++ {
				lt.featuresInto(sc.row, tr, vm, k, t)
				sc.m.SetRow(bi*w+t, sc.row)
			}
		}
		pctOut := lt.pctForest[k].PredictMatrix(&sc.m, sc.pctOut)
		maxOut := lt.maxForest[k].PredictMatrix(&sc.m, sc.maxOut)
		pctFlat := make([]float64, n)
		maxFlat := make([]float64, n)
		for bi, vi := range fresh {
			lo, hi := bi*w, (bi+1)*w
			preds[vi].Pct[k] = pctFlat[lo:hi:hi]
			preds[vi].Max[k] = maxFlat[lo:hi:hi]
			for t := 0; t < w; t++ {
				preds[vi].Pct[k][t] = quantize(pctOut[lo+t], lt.cfg.SafetyBuckets)
				preds[vi].Max[k][t] = quantize(maxOut[lo+t], lt.cfg.SafetyBuckets)
			}
		}
	}
	for _, vi := range fresh {
		preds[vi].Clamp()
	}
}

// quantizeAll applies quantize element-wise.
func quantizeAll(xs []float64, safetyBuckets int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = quantize(x, safetyBuckets)
	}
	return out
}

// quantize rounds a predicted fraction up to the next 5% bucket, adds the
// configured safety margin, and clamps into [0,1] ("predicts utilization
// in 5% buckets", §3.3).
func quantize(x float64, safetyBuckets int) float64 {
	if x < 0 {
		x = 0
	}
	b := stats.BucketUp(x, coachvm.FractionBucket) + float64(safetyBuckets)*coachvm.FractionBucket
	if b > 1 {
		b = 1
	}
	return b
}
