package predict

import (
	"math"
	"reflect"
	"testing"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

var (
	cachedTrace *trace.Trace
	cachedModel *LongTerm
)

func getTraceAndModel(t *testing.T) (*trace.Trace, *LongTerm) {
	t.Helper()
	if cachedTrace == nil {
		cfg := trace.DefaultGenConfig()
		cfg.VMs = 300
		cfg.Subscriptions = 30
		tr, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := TrainLongTerm(tr, tr.Horizon/2, DefaultLongTermConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedTrace, cachedModel = tr, m
	}
	return cachedTrace, cachedModel
}

func TestTrainLongTermValidation(t *testing.T) {
	tr, _ := getTraceAndModel(t)
	cfg := DefaultLongTermConfig()
	cfg.Percentile = 0
	if _, err := TrainLongTerm(tr, tr.Horizon/2, cfg); err == nil {
		t.Error("zero percentile must fail")
	}
	cfg = DefaultLongTermConfig()
	cfg.Windows = timeseries.Windows{PerDay: 7}
	if _, err := TrainLongTerm(tr, tr.Horizon/2, cfg); err == nil {
		t.Error("invalid windows must fail")
	}
}

func TestModelTrained(t *testing.T) {
	_, m := getTraceAndModel(t)
	if m.TrainRows() == 0 {
		t.Fatal("no training rows")
	}
	if m.MemoryBytes() <= 0 {
		t.Error("model memory must be positive")
	}
}

func TestOwnHistoryPredictionAccuracy(t *testing.T) {
	// For VMs observable during training, the prediction comes from their
	// own history and must cover their actual P95 in most cases.
	tr, m := getTraceAndModel(t)
	covered, total := 0, 0
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start > 0 || vm.End < tr.Horizon-1 || !vm.LongRunning() {
			continue
		}
		pred, ok := m.Predict(tr, vm)
		if !ok {
			continue
		}
		total++
		actual := vm.Util[resources.Memory].WindowPercentile(pred.Windows, 95)
		ok2 := true
		var predGuar, actGuar float64
		for tt := range actual {
			if pred.Pct[resources.Memory][tt] > predGuar {
				predGuar = pred.Pct[resources.Memory][tt]
			}
			if actual[tt] > actGuar {
				actGuar = actual[tt]
			}
		}
		if predGuar < actGuar-1e-9 {
			ok2 = false
		}
		if ok2 {
			covered++
		}
	}
	if total == 0 {
		t.Skip("no full-lifetime VMs at this scale")
	}
	if frac := float64(covered) / float64(total); frac < 0.8 {
		t.Errorf("own-history coverage = %.2f, want >= 0.8", frac)
	}
}

func TestFreshVMRequiresSubscriptionHistory(t *testing.T) {
	tr, m := getTraceAndModel(t)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start <= tr.Horizon/2 {
			continue // not fresh
		}
		_, ok := m.Predict(tr, vm)
		if ok && m.HistoryCount(vm.Subscription) < DefaultLongTermConfig().MinHistory {
			t.Fatalf("vm %d predicted without history", vm.ID)
		}
	}
}

func TestPredictionsQuantized(t *testing.T) {
	tr, m := getTraceAndModel(t)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		pred, ok := m.Predict(tr, vm)
		if !ok {
			continue
		}
		for _, k := range resources.Kinds {
			for _, v := range pred.Max[k] {
				if v < 0 || v > 1 {
					t.Fatalf("prediction %v outside [0,1]", v)
				}
				steps := v / 0.05
				if math.Abs(steps-math.Round(steps)) > 1e-6 {
					t.Fatalf("prediction %v not on a 5%% bucket", v)
				}
			}
		}
		if i > 50 {
			break
		}
	}
}

func TestQuantize(t *testing.T) {
	if got := quantize(0.17, 0); math.Abs(got-0.20) > 1e-12 {
		t.Errorf("quantize(0.17, 0) = %v", got)
	}
	if got := quantize(0.17, 1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("quantize(0.17, 1) = %v", got)
	}
	if got := quantize(0.99, 2); got != 1 {
		t.Errorf("quantize must clamp at 1, got %v", got)
	}
	if got := quantize(-0.5, 0); got != 0 {
		t.Errorf("quantize(-0.5) = %v", got)
	}
}

func TestNewLocalValidation(t *testing.T) {
	cfg := DefaultLocalConfig()
	cfg.Alpha = -1
	l, err := NewLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Observe(0.5)
	if l.PredictShort() != 0.5 {
		t.Error("invalid alpha must default and track first observation")
	}
}

func TestLocalShortPrediction(t *testing.T) {
	l, err := NewLocal(DefaultLocalConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		l.Observe(0.6)
	}
	if got := l.PredictShort(); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("short prediction = %v, want 0.6", got)
	}
}

func TestLocalWindowRolling(t *testing.T) {
	l, _ := NewLocal(DefaultLocalConfig())
	for w := 0; w < 3; w++ {
		for i := 0; i < 15; i++ {
			l.Observe(0.5)
		}
		l.CompleteWindow()
	}
	if l.CompletedWindows() != 3 {
		t.Errorf("completed = %d", l.CompletedWindows())
	}
	// Empty window is a no-op.
	l.CompleteWindow()
	if l.CompletedWindows() != 3 {
		t.Error("empty CompleteWindow must not count")
	}
}

func TestLocalWarmupGating(t *testing.T) {
	cfg := DefaultLocalConfig()
	cfg.WarmupWindows = 2
	l, _ := NewLocal(cfg)
	if l.LSTMReady() {
		t.Error("LSTM ready before warmup")
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < 15; i++ {
			l.Observe(0.4)
		}
		l.CompleteWindow()
	}
	if !l.LSTMReady() {
		t.Error("LSTM not ready after warmup")
	}
}

func TestLocalFiveMinFallsBackBeforeWarmup(t *testing.T) {
	l, _ := NewLocal(DefaultLocalConfig()) // 288-window warmup
	for i := 0; i < 15; i++ {
		l.Observe(0.7)
	}
	l.CompleteWindow()
	if got := l.PredictFiveMin(); math.Abs(got-l.PredictShort()) > 1e-9 {
		t.Errorf("pre-warmup 5-min prediction %v != EWMA %v", got, l.PredictShort())
	}
}

func TestLocalLSTMLearnsLevel(t *testing.T) {
	cfg := DefaultLocalConfig()
	cfg.WarmupWindows = 5
	l, _ := NewLocal(cfg)
	for w := 0; w < 120; w++ {
		for i := 0; i < 15; i++ {
			l.Observe(0.5)
		}
		l.CompleteWindow()
	}
	if got := l.PredictFiveMin(); math.Abs(got-0.5) > 0.15 {
		t.Errorf("LSTM prediction of constant 0.5 = %v", got)
	}
}

func TestLocalMemoryBudget(t *testing.T) {
	l, _ := NewLocal(DefaultLocalConfig())
	// Paper §4.5: each local predictor requires ~25KB.
	if mb := l.MemoryBytes(); mb > 64<<10 {
		t.Errorf("local predictor uses %d bytes, want ~25KB", mb)
	}
}

func TestPredictionClampAgainstMax(t *testing.T) {
	tr, m := getTraceAndModel(t)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		pred, ok := m.Predict(tr, vm)
		if !ok {
			continue
		}
		for _, k := range resources.Kinds {
			for tt := range pred.Pct[k] {
				if pred.Pct[k][tt] > pred.Max[k][tt]+1e-9 {
					t.Fatalf("pct above max at vm %d", vm.ID)
				}
			}
		}
		if i > 50 {
			break
		}
	}
}

// predictPerRow is the independent reference for every inference path of
// LongTerm: the per-row forest walk Predict ran before it became a batch
// of one, kept verbatim. Each (resource, window) feature row goes through
// mlforest.Forest.Predict alone, so it shares no code with PredictMatrix.
func predictPerRow(lt *LongTerm, tr *trace.Trace, vm *trace.VM) (pred coachvm.Prediction, ok bool) {
	pred.Windows = lt.cfg.Windows
	pred.Percentile = lt.cfg.Percentile
	if visible := visibleSamples(vm, lt.upTo); visible >= lt.cfg.MinSamples {
		for _, k := range resources.Kinds {
			s := vm.Util[k][:visible]
			pred.Pct[k] = quantizeAll(s.WindowPercentile(lt.cfg.Windows, lt.cfg.Percentile), lt.cfg.SafetyBuckets)
			pred.Max[k] = quantizeAll(s.LifetimeWindowMax(lt.cfg.Windows), lt.cfg.SafetyBuckets)
		}
		pred.Clamp()
		return pred, true
	}
	if lt.HistoryCount(vm.Subscription) < lt.cfg.MinHistory {
		return pred, false
	}
	for _, k := range resources.Kinds {
		pred.Max[k] = make([]float64, lt.cfg.Windows.PerDay)
		pred.Pct[k] = make([]float64, lt.cfg.Windows.PerDay)
		for t := 0; t < lt.cfg.Windows.PerDay; t++ {
			feats := lt.features(tr, vm, k, t)
			pred.Pct[k][t] = quantize(lt.pctForest[k].Predict(feats), lt.cfg.SafetyBuckets)
			pred.Max[k][t] = quantize(lt.maxForest[k].Predict(feats), lt.cfg.SafetyBuckets)
		}
	}
	pred.Clamp()
	return pred, true
}

// checkSamePrediction fails t unless got equals the per-row reference
// want window by window, bit for bit.
func checkSamePrediction(t *testing.T, path string, vmID int, got coachvm.Prediction, gotOK bool, want coachvm.Prediction, wantOK bool) {
	t.Helper()
	if gotOK != wantOK {
		t.Fatalf("vm %d: %s ok=%v, per-row ok=%v", vmID, path, gotOK, wantOK)
	}
	if got.Windows != want.Windows || got.Percentile != want.Percentile {
		t.Fatalf("vm %d: %s windows/percentile %v/%v, per-row %v/%v",
			vmID, path, got.Windows, got.Percentile, want.Windows, want.Percentile)
	}
	for _, k := range resources.Kinds {
		if len(got.Pct[k]) != len(want.Pct[k]) || len(got.Max[k]) != len(want.Max[k]) {
			t.Fatalf("vm %d %v: %s has %d/%d windows, per-row %d/%d", vmID, k, path,
				len(got.Pct[k]), len(got.Max[k]), len(want.Pct[k]), len(want.Max[k]))
		}
		for w := range want.Pct[k] {
			if got.Pct[k][w] != want.Pct[k][w] {
				t.Fatalf("vm %d %v pct window %d: %s %v != per-row %v",
					vmID, k, w, path, got.Pct[k][w], want.Pct[k][w])
			}
			if got.Max[k][w] != want.Max[k][w] {
				t.Fatalf("vm %d %v max window %d: %s %v != per-row %v",
					vmID, k, w, path, got.Max[k][w], want.Max[k][w])
			}
		}
	}
}

// TestPredictBatchMatchesPredict holds both inference entry points —
// PredictBatch over a 120-VM batch and per-VM Predict, a batch of one —
// to the per-row reference walk.
func TestPredictBatchMatchesPredict(t *testing.T) {
	tr, m := getTraceAndModel(t)
	var vms []*trace.VM
	for i := range tr.VMs {
		vms = append(vms, &tr.VMs[i])
		if len(vms) == 120 {
			break
		}
	}
	preds, oks := m.PredictBatch(tr, vms)
	if len(preds) != len(vms) || len(oks) != len(vms) {
		t.Fatalf("batch sizes %d/%d, want %d", len(preds), len(oks), len(vms))
	}
	sawFresh, sawSelf, sawNoHist := false, false, false
	for i, vm := range vms {
		want, ok := predictPerRow(m, tr, vm)
		checkSamePrediction(t, "PredictBatch", vm.ID, preds[i], oks[i], want, ok)
		single, singleOK := m.Predict(tr, vm)
		checkSamePrediction(t, "Predict", vm.ID, single, singleOK, want, ok)
		if !ok {
			sawNoHist = true
			continue
		}
		if vm.Start >= tr.Horizon/2 {
			sawFresh = true
		} else {
			sawSelf = true
		}
	}
	if !sawFresh || !sawSelf {
		t.Errorf("batch did not cover both paths: fresh=%v self=%v noHistory=%v",
			sawFresh, sawSelf, sawNoHist)
	}
}

// TestPredictBatchIntoOverwritesReusedSlices pins the Into form's reuse
// contract: a second batch written into the same slices must leave no
// residue of the first — in particular a VM rejected for insufficient
// history must not inherit the previous occupant's prediction windows.
func TestPredictBatchIntoOverwritesReusedSlices(t *testing.T) {
	tr, m := getTraceAndModel(t)
	var okVMs, noHistVMs []*trace.VM
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if _, ok := m.Predict(tr, vm); ok {
			okVMs = append(okVMs, vm)
		} else {
			noHistVMs = append(noHistVMs, vm)
		}
	}
	if len(okVMs) == 0 || len(noHistVMs) == 0 {
		t.Skipf("need both predictable and history-poor VMs (%d/%d)", len(okVMs), len(noHistVMs))
	}
	preds := make([]coachvm.Prediction, 1)
	oks := make([]bool, 1)
	m.PredictBatchInto(tr, okVMs[:1], preds, oks)
	if !oks[0] || preds[0].Pct[resources.Memory] == nil {
		t.Fatalf("first batch: ok=%v pred=%+v", oks[0], preds[0])
	}
	m.PredictBatchInto(tr, noHistVMs[:1], preds, oks)
	if oks[0] {
		t.Fatal("history-poor VM predicted ok on reused slice")
	}
	if preds[0].Pct[resources.Memory] != nil || preds[0].Max[resources.Memory] != nil {
		t.Fatal("reused prediction entry kept the previous batch's windows")
	}
	want, _ := m.Predict(tr, okVMs[0])
	m.PredictBatchInto(tr, okVMs[:1], preds, oks)
	if !oks[0] || !reflect.DeepEqual(preds[0], want) {
		t.Fatalf("reused slice batch diverged from Predict: %+v vs %+v", preds[0], want)
	}
}
