package sim

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// TestArrivalPredictionsMatchPredict pins the shard's chunked prediction
// cursor: for shards whose arrival count sits on, just before and just
// after the predictChunk boundaries, every prediction step consumes must
// be gob-equal to per-VM Predict of that very VM — with a model under a
// Coach policy and under PolicyNone, and without a model.
func TestArrivalPredictionsMatchPredict(t *testing.T) {
	tr, _ := fixtures(t)
	trainUpTo := tr.Horizon / 2
	base := ConfigForPolicy(scheduler.PolicyCoach)
	ltCfg := base.LongTerm
	ltCfg.Windows = base.Windows
	ltCfg.Percentile = base.Percentile
	model, err := predict.TrainLongTerm(tr, trainUpTo, ltCfg)
	if err != nil {
		t.Fatal(err)
	}
	// One cluster, so every VM of a (sub-)trace lands in shard 0.
	fleet := cluster.NewFleet(cluster.DefaultClusters(40)[:1])

	evalVMs := 0
	for i := range tr.VMs {
		if tr.VMs[i].End > trainUpTo {
			evalVMs++
		}
	}
	if evalVMs <= 2*predictChunk {
		t.Fatalf("fixture has %d evaluation-period VMs, need more than %d", evalVMs, 2*predictChunk)
	}

	for _, c := range []struct {
		name   string
		model  *predict.LongTerm
		policy scheduler.PolicyKind
	}{
		{"coach", model, scheduler.PolicyAggrCoach},
		{"none", model, scheduler.PolicyNone},
		{"nil-model", nil, scheduler.PolicyAggrCoach},
	} {
		for _, n := range []int{0, 1, predictChunk - 1, predictChunk, predictChunk + 1, evalVMs} {
			cfg := ConfigForPolicy(c.policy)
			cfg.TrainUpTo = trainUpTo
			sub := prefixWithArrivals(t, tr, trainUpTo, n)
			shards, err := buildShards(sub, fleet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sh := shards[0]
			if len(sh.arrivals) != n {
				t.Fatalf("%s/%d: shard has %d arrivals", c.name, n, len(sh.arrivals))
			}

			// The cursor alone, arrival by arrival in event order.
			st, err := newShardState(sh, sub, c.model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, vm := range sh.arrivals {
				got, gotOK, err := st.nextPrediction(vm)
				if err != nil {
					t.Fatalf("%s/%d: %v", c.name, n, err)
				}
				var want coachvm.Prediction
				wantOK := false
				if c.model != nil {
					want, wantOK = c.model.Predict(sub, vm)
				}
				if gotOK != wantOK || !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
					t.Fatalf("%s/%d: vm %d: consumed prediction differs from Predict", c.name, n, vm.ID)
				}
			}
			if c.model != nil {
				if _, _, err := st.nextPrediction(&tr.VMs[0]); err == nil {
					t.Fatalf("%s/%d: a prediction past the last arrival was handed out", c.name, n)
				}
			}
			if c.model != nil && n >= 2 {
				st, err := newShardState(sh, sub, c.model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := st.nextPrediction(sh.arrivals[1]); err == nil {
					t.Fatalf("%s/%d: an arrival out of event order got a prediction", c.name, n)
				}
			}

			// The replay: step consumes the same cursor (an arrival out of
			// step is an error), and every outcome it records is the one
			// per-VM Predict yields for that VM.
			st, err = newShardState(sh, sub, c.model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for tick := trainUpTo; tick < sub.Horizon; tick++ {
				if err := st.step(tick); err != nil {
					t.Fatalf("%s/%d: tick %d: %v", c.name, n, tick, err)
				}
			}
			if st.sr.requested != n {
				t.Fatalf("%s/%d: replay requested %d arrivals", c.name, n, st.sr.requested)
			}
			byID := make(map[int]*trace.VM, len(sub.VMs))
			for i := range sub.VMs {
				byID[sub.VMs[i].ID] = &sub.VMs[i]
			}
			for _, o := range st.sr.outcomes {
				vm := byID[o.VMID]
				pred, ok := c.model.Predict(sub, vm)
				cvm, err := scheduler.BuildCVM(cfg.Policy, vm.ID, vm.Alloc, pred, ok, cfg.Windows)
				if err != nil {
					t.Fatal(err)
				}
				if want := outcome(vm, cvm, cfg); !reflect.DeepEqual(o, want) {
					t.Fatalf("%s/%d: vm %d outcome %+v, per-VM Predict gives %+v", c.name, n, vm.ID, o, want)
				}
			}
			if c.policy != scheduler.PolicyNone && c.model != nil && n > 0 && len(st.sr.outcomes) == 0 {
				t.Fatalf("%s/%d: no oversubscribed outcome to check", c.name, n)
			}
		}
	}
}

// prefixWithArrivals returns tr cut to its shortest VM prefix holding
// exactly n evaluation-period VMs (ending after trainUpTo).
func prefixWithArrivals(t *testing.T, tr *trace.Trace, trainUpTo, n int) *trace.Trace {
	t.Helper()
	sub := *tr
	seen := 0
	for i := range tr.VMs {
		if seen == n {
			sub.VMs = tr.VMs[:i]
			return &sub
		}
		if tr.VMs[i].End > trainUpTo {
			seen++
		}
	}
	if seen != n {
		t.Fatalf("trace has only %d evaluation-period VMs, want %d", seen, n)
	}
	return &sub
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
