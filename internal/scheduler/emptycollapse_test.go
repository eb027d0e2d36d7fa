package scheduler

import (
	"math/rand"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/resources"
)

// mixedServers interleaves three server capacities in a seeded order, so
// empty servers of one capacity are scattered between servers of others.
func mixedServers(rng *rand.Rand, n int) []*cluster.Server {
	caps := []resources.Vector{
		resources.NewVector(16, 64, 10, 1024),
		resources.NewVector(24, 48, 6, 512),
		resources.NewVector(8, 128, 4, 2048),
	}
	out := make([]*cluster.Server, n)
	for i := range out {
		c := caps[rng.Intn(len(caps))]
		out[i] = &cluster.Server{ID: i, Spec: cluster.ServerSpec{Name: "mixed", Generation: 1, Capacity: c}}
	}
	return out
}

// randomCVM mixes fully guaranteed VMs with oversubscribed ones whose
// 0.1-granular network demand leaves rounding residue in drained pools.
func randomCVM(t *testing.T, rng *rand.Rand, id int) *coachvm.CVM {
	t.Helper()
	alloc := resources.NewVector(
		float64(1+rng.Intn(8)),
		float64(4*(1+rng.Intn(8))),
		0.3+rng.Float64()*3,
		float64(32*(1+rng.Intn(8))),
	)
	if rng.Intn(4) == 0 {
		return coachvm.FullyGuaranteed(id, alloc, w6)
	}
	p := coachvm.Prediction{Windows: w6, Percentile: 95}
	for _, k := range resources.Kinds {
		p.Max[k] = make([]float64, w6.PerDay)
		p.Pct[k] = make([]float64, w6.PerDay)
		for i := range p.Max[k] {
			p.Max[k][i] = rng.Float64()
			p.Pct[k][i] = p.Max[k][i] * rng.Float64()
		}
	}
	vm, err := coachvm.New(id, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// TestEmptyServerCollapseMatchesCandidates pins PlaceExcluding's and
// HasFeasible's scan, which evaluates only the lowest-index empty server
// of each capacity, to the full Candidates ranking on the same state,
// through random placements (with and without an excluded server),
// removals, server drains and down/up toggles.
func TestEmptyServerCollapseMatchesCandidates(t *testing.T) {
	var placedOnEmpty, rejected, residue, skippedLower int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewOverServers(mixedServers(rng, 24), w6)
		if err != nil {
			t.Fatal(err)
		}
		n := s.NumServers()
		var placed []int
		next := 0
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 50:
				vm := randomCVM(t, rng, next)
				next++
				exclude := -1
				if rng.Intn(3) == 0 {
					exclude = rng.Intn(n)
				}
				cands := s.Candidates(vm, exclude)
				if got := s.HasFeasible(vm, exclude); got != (len(cands) > 0) {
					t.Fatalf("seed %d op %d: HasFeasible = %v with %d candidates", seed, op, got, len(cands))
				}
				var srv int
				var ok bool
				if exclude < 0 {
					srv, ok = s.Place(vm)
				} else {
					srv, ok = s.PlaceExcluding(vm, exclude)
				}
				if len(cands) == 0 {
					if ok {
						t.Fatalf("seed %d op %d: placed on %d with no candidates", seed, op, srv)
					}
					rejected++
					continue
				}
				if !ok || srv != cands[0].Server {
					t.Fatalf("seed %d op %d: placed (%d, %v), ranking picks %d", seed, op, srv, ok, cands[0].Server)
				}
				placed = append(placed, vm.ID)
				if s.servers[srv].Pool.Len() == 1 {
					placedOnEmpty++
					for i := 0; i < srv; i++ {
						if s.capClass[i] == s.capClass[srv] && s.servers[i].Pool.Empty() {
							skippedLower++ // a lower empty twin was down or excluded
							break
						}
					}
				}
			case r < 80 && len(placed) > 0:
				i := rng.Intn(len(placed))
				if vm, _ := s.Remove(placed[i]); vm == nil {
					t.Fatalf("seed %d op %d: Remove(%d) = nil", seed, op, placed[i])
				}
				placed[i] = placed[len(placed)-1]
				placed = placed[:len(placed)-1]
			case r < 88:
				// Drain one server so pools return to empty, exactly or
				// with a rounding residue.
				srv := rng.Intn(n)
				for _, id := range s.VMsOn(srv) {
					s.Remove(id)
					for i, pid := range placed {
						if pid == id {
							placed[i] = placed[len(placed)-1]
							placed = placed[:len(placed)-1]
							break
						}
					}
				}
				if st := s.servers[srv].Pool; st.Len() == 0 && !st.Empty() {
					residue++
				}
			default:
				srv := rng.Intn(n)
				s.SetDown(srv, !s.Down(srv))
			}
			for i, st := range s.servers {
				if err := st.Pool.Audit(); err != nil {
					t.Fatalf("seed %d op %d server %d: %v", seed, op, i, err)
				}
			}
		}
	}
	t.Logf("%d placements on empty servers (%d past a down or excluded empty twin), %d rejections, %d drained pools with residue",
		placedOnEmpty, skippedLower, rejected, residue)
	// The sequences must reach the cases the collapse has to get right.
	if placedOnEmpty == 0 || rejected == 0 || residue == 0 || skippedLower == 0 {
		t.Fatalf("weak coverage: %d placements on empty servers (%d past a down or excluded empty twin), %d rejections, %d drained pools with residue",
			placedOnEmpty, skippedLower, rejected, residue)
	}
}
