package timeseries

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coach-oss/coach/internal/stats"
)

// refWindowPercentile is the per-window-append implementation
// WindowPercentile replaced, kept verbatim as the equivalence reference.
func refWindowPercentile(s Series, w Windows, p float64) []float64 {
	buckets := make([][]float64, w.PerDay)
	per := w.Samples()
	for i, v := range s {
		win := (i % SamplesPerDay) / per
		buckets[win] = append(buckets[win], v)
	}
	out := make([]float64, w.PerDay)
	for win, xs := range buckets {
		out[win] = stats.Percentile(xs, p)
	}
	return out
}

// sameFloats compares element-wise with ==, counting NaN equal to NaN,
// and additionally requires equal signs so +0 and -0 are told apart.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if a[i] != b[i] || math.Signbit(a[i]) != math.Signbit(b[i]) {
			return false
		}
	}
	return true
}

// specialSample maps a byte to a utilization sample, reserving a few
// values for NaN, ±0 and ±Inf so the sort order of specials is covered.
func specialSample(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Copysign(0, -1)
	case 253:
		return 0
	case 252:
		return math.Inf(1)
	case 251:
		return math.Inf(-1)
	}
	return float64(b) / 250
}

var percentileWindowSplits = []int{1, 2, 6, 24, 288}

func TestWindowPercentileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lengths := []int{0, 1, 7, 47, 48, 49, SamplesPerDay - 1, SamplesPerDay, SamplesPerDay + 1,
		2*SamplesPerDay + 100, 3 * SamplesPerDay, 5*SamplesPerDay - 13}
	for _, n := range lengths {
		for _, special := range []bool{false, true} {
			s := make(Series, n)
			for i := range s {
				if special && rng.Intn(8) == 0 {
					s[i] = specialSample(byte(251 + rng.Intn(5)))
				} else {
					s[i] = float64(rng.Intn(40)) / 39 // repeated values exercise ties
				}
			}
			for _, perDay := range percentileWindowSplits {
				w := Windows{PerDay: perDay}
				for _, p := range []float64{0, 50, 95, 100} {
					got, want := s.WindowPercentile(w, p), refWindowPercentile(s, w, p)
					if !sameFloats(got, want) {
						t.Fatalf("len %d special %v %v p%v: got %v, want %v", n, special, w, p, got, want)
					}
				}
			}
		}
	}
}

// FuzzWindowPercentile checks WindowPercentile against the reference on
// arbitrary series (samples drawn from data, cycled to length n), window
// splits and percentiles.
func FuzzWindowPercentile(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0), uint8(95))
	f.Add([]byte{1, 2, 3}, uint16(5), uint8(2), uint8(50))
	f.Add([]byte{255, 254, 253, 10, 200}, uint16(SamplesPerDay+3), uint8(1), uint8(100))
	f.Add([]byte{7, 254, 253, 252, 251, 255, 0}, uint16(3*SamplesPerDay-1), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, split, pct uint8) {
		s := make(Series, int(n)%(4*SamplesPerDay))
		for i := range s {
			if len(data) > 0 {
				s[i] = specialSample(data[i%len(data)])
			}
		}
		w := Windows{PerDay: percentileWindowSplits[int(split)%len(percentileWindowSplits)]}
		p := float64(pct) / 2.5 // 0..102, past 100 included
		got, want := s.WindowPercentile(w, p), refWindowPercentile(s, w, p)
		if !sameFloats(got, want) {
			t.Fatalf("len %d %v p%v: got %v, want %v", len(s), w, p, got, want)
		}
	})
}
