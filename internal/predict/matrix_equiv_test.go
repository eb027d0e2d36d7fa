package predict

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/trace"
)

// TestPredictBatchMatrixEquivalence is the predict half of the
// level-synchronous equivalence wall: PredictBatch and per-VM Predict
// both feed the forests through the feature-major matrix path, so for
// every scenario preset both must stay gob-byte-identical to the per-row
// reference walk (predictPerRow) at each required batch size. Run under
// -race in CI, this also races the pooled matrix scratch across parallel
// presets.
func TestPredictBatchMatrixEquivalence(t *testing.T) {
	for _, name := range scenario.PresetNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			full, err := scenario.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			sp := full.Scaled(220, 22)
			tr, err := trace.GenerateScenario(sp)
			if err != nil {
				t.Fatal(err)
			}
			lt, err := TrainLongTerm(tr, tr.Horizon/2, DefaultLongTermConfig())
			if err != nil {
				t.Fatal(err)
			}

			// Every VM participates — own-history, insufficient-history and
			// fresh forest-path VMs alike — cycling the population to fill
			// the largest batch.
			forestRows := 0
			for _, n := range []int{1, 7, 64, 4096} {
				vms := make([]*trace.VM, n)
				for i := range vms {
					vms[i] = &tr.VMs[i%len(tr.VMs)]
				}
				batchPred, batchOK := lt.PredictBatch(tr, vms)
				singlePred := make([]coachvm.Prediction, n)
				singleOK := make([]bool, n)
				wantPred := make([]coachvm.Prediction, n)
				wantOK := make([]bool, n)
				for i, vm := range vms {
					singlePred[i], singleOK[i] = lt.Predict(tr, vm)
					wantPred[i], wantOK[i] = predictPerRow(lt, tr, vm)
					if wantOK[i] && wantPred[i].Pct[0] != nil && n == 4096 {
						forestRows++
					}
				}
				want := encodePredictions(t, wantPred, wantOK)
				if got := encodePredictions(t, batchPred, batchOK); !bytes.Equal(got, want) {
					t.Fatalf("batch %d: PredictBatch diverges from the per-row walk", n)
				}
				if got := encodePredictions(t, singlePred, singleOK); !bytes.Equal(got, want) {
					t.Fatalf("batch %d: per-VM Predict diverges from the per-row walk", n)
				}
			}
			if forestRows == 0 {
				t.Fatal("fixture regression: no VM was predicted at all")
			}
			if s := lt.InferenceStats(); s.MismatchedRows != 0 || s.Rows == 0 {
				t.Fatalf("inference stats %+v: want forest rows and no mismatches", s)
			}
		})
	}
}

// encodePredictions gob-serializes a prediction batch; equal bytes mean
// equal predictions down to every float bit pattern.
func encodePredictions(t *testing.T, preds []coachvm.Prediction, oks []bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		P  []coachvm.Prediction
		OK []bool
	}{preds, oks}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
