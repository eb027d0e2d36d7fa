package coachvm_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/timeseries"
)

// refRoundUp is the §3.3 rounding, restated: up to the kind's
// granularity, then clamped to [0, alloc].
func refRoundUp(amount, alloc float64, k resources.Kind) float64 {
	if g := coachvm.Granularity[k]; g > 0 {
		amount = math.Ceil(amount/g-1e-9) * g
	}
	return math.Max(0, math.Min(amount, alloc))
}

// refSchedDemand evaluates the scheduling demand directly from the VM's
// fields: guaranteed + VA for non-fungible kinds, the rounded bucketed
// window maximum for fungible ones.
func refSchedDemand(vm *coachvm.CVM, k resources.Kind, t int) float64 {
	if resources.KindFungibility(k) == resources.NonFungible {
		return vm.Guaranteed[k] + vm.VADemand[k][t]
	}
	return refRoundUp(stats.BucketUp(vm.Pred.Max[k][t], coachvm.FractionBucket)*vm.Alloc[k], vm.Alloc[k], k)
}

// refMaxDemand is MaxDemand over refSchedDemand.
func refMaxDemand(vm *coachvm.CVM, k resources.Kind) float64 {
	m := vm.Guaranteed[k]
	for t := range vm.VADemand[k] {
		m = math.Max(m, refSchedDemand(vm, k, t))
	}
	return m
}

func TestSchedDemandCacheMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		w := timeseries.CommonWindowConfigs()[rng.Intn(len(timeseries.CommonWindowConfigs()))]
		alloc := resources.NewVector(
			float64(1+rng.Intn(40)),
			float64(4*(1+rng.Intn(128))),
			0.5+rng.Float64()*19,
			float64(32*(1+rng.Intn(64))),
		)
		pred := coachvm.Prediction{Windows: w, Percentile: 95}
		for _, k := range resources.Kinds {
			pred.Max[k] = make([]float64, w.PerDay)
			pred.Pct[k] = make([]float64, w.PerDay)
			for i := range pred.Max[k] {
				pred.Max[k][i] = rng.Float64()
				pred.Pct[k][i] = pred.Max[k][i] * rng.Float64()
			}
		}
		vmNew, err := coachvm.New(trial, alloc, pred)
		if err != nil {
			t.Fatal(err)
		}
		vmSingle, err := scheduler.BuildCVM(scheduler.PolicySingle, trial, alloc, pred, true, w)
		if err != nil {
			t.Fatal(err)
		}
		for name, vm := range map[string]*coachvm.CVM{
			"New":             vmNew,
			"FullyGuaranteed": coachvm.FullyGuaranteed(trial, alloc, w),
			"Single":          vmSingle,
		} {
			var savings resources.Vector
			for _, k := range resources.Kinds {
				for tt := 0; tt < w.PerDay; tt++ {
					if got, want := vm.SchedDemand(k, tt), refSchedDemand(vm, k, tt); got != want {
						t.Fatalf("trial %d %s: SchedDemand(%v, %d) = %v, formula gives %v", trial, name, k, tt, got, want)
					}
				}
				want := refMaxDemand(vm, k)
				if got := vm.MaxDemand(k); got != want {
					t.Fatalf("trial %d %s: MaxDemand(%v) = %v, want %v", trial, name, k, got, want)
				}
				savings[k] = math.Max(0, vm.Alloc[k]-want)
			}
			if got := vm.OversubSavings(); got != savings {
				t.Fatalf("trial %d %s: OversubSavings = %v, want %v", trial, name, got, savings)
			}
		}
	}
}
