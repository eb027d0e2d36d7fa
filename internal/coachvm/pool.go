package coachvm

import (
	"fmt"
	"math"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

// Pool tracks one server's guaranteed and multiplexed oversubscribed
// demand across CoachVMs. It is the server-manager bookkeeping of §3.3
// ("The server manager stores the VA-demand in each time window for each
// VM. It recomputes the multiplexed demand when it (de)allocates VMs and
// adjusts the oversubscribed portion accordingly.").
//
// Feasibility is the (windows + 1)-dimensional check of §3.3: per
// resource, the summed per-window scheduling demand must fit the capacity
// in every window, and — for non-fungible resources only — the summed
// static guaranteed portions must fit as well.
type Pool struct {
	windows  timeseries.Windows
	capacity resources.Vector

	// guaranteed is the sum of members' guaranteed portions (formula 3).
	guaranteed resources.Vector
	// demandSum[k][t] is the sum of members' scheduling demand in window
	// t (guaranteed + VA for non-fungible kinds; predicted per-window
	// utilization for fungible kinds).
	demandSum [resources.NumKinds][]float64
	// backed[k] is the peak of demandSum[k] across windows (Backed),
	// recomputed by Add and Remove in the same pass that updates the sums.
	backed resources.Vector
	// empty holds while the pool is in NewPool's state: no members and
	// every sum exactly zero (see Empty).
	empty bool

	members map[int]*CVM
}

// NewPool creates an empty pool for a server of the given capacity.
func NewPool(capacity resources.Vector, w timeseries.Windows) *Pool {
	p := &Pool{windows: w, capacity: capacity, empty: true, members: make(map[int]*CVM)}
	for _, k := range resources.Kinds {
		p.demandSum[k] = make([]float64, w.PerDay)
	}
	return p
}

// Capacity returns the server capacity the pool manages.
func (p *Pool) Capacity() resources.Vector { return p.capacity }

// Windows returns the time-window configuration.
func (p *Pool) Windows() timeseries.Windows { return p.windows }

// Len returns the number of member VMs.
func (p *Pool) Len() int { return len(p.members) }

// Empty reports whether the pool is exactly as NewPool left it: no
// members, and the guaranteed and per-window sums all exactly zero. Two
// empty pools of one capacity and window split answer Fits identically
// and have the same Backed, so a best-fit scan needs to look at only one
// of them. A pool whose members have all left can keep a rounding residue
// in its sums (e.g. from 0.1-granularity network demand); it is not
// empty until the residue is gone.
func (p *Pool) Empty() bool { return p.empty }

// Members returns the member VMs keyed by ID (shared map: do not mutate).
func (p *Pool) Members() map[int]*CVM { return p.members }

// Guaranteed returns the summed guaranteed portions (formula 3).
func (p *Pool) Guaranteed() resources.Vector { return p.guaranteed }

// DemandAt returns the summed scheduling demand of resource k in window t.
func (p *Pool) DemandAt(k resources.Kind, t int) float64 { return p.demandSum[k][t] }

// Oversubscribed returns, per resource, the multiplexed oversubscribed
// pool size: the max across windows of the summed VA demands (formula 4).
func (p *Pool) Oversubscribed() resources.Vector {
	var out resources.Vector
	for _, k := range resources.Kinds {
		var m float64
		for t := 0; t < p.windows.PerDay; t++ {
			var sum float64
			for _, vm := range p.members {
				sum += vm.VADemand[k][t]
			}
			if sum > m {
				m = sum
			}
		}
		out[k] = m
	}
	return out
}

// Backed returns, per resource, the peak summed scheduling demand across
// windows: the physical resources the server must actually reserve. For
// memory this equals guaranteed + oversubscribed (formulas 3 + 4).
func (p *Pool) Backed() resources.Vector { return p.backed }

// peak is the scan Backed caches: the largest of the sums, and 0 when
// none is positive.
func peak(sums []float64) float64 {
	var m float64
	for _, s := range sums {
		if s > m {
			m = s
		}
	}
	return m
}

// Free returns capacity - Backed, the room left for further VMs.
func (p *Pool) Free() resources.Vector {
	return p.capacity.Sub(p.Backed()).ClampNonNegative()
}

// Fits reports whether adding vm would keep the pool feasible.
func (p *Pool) Fits(vm *CVM) bool {
	if vm.Pred.Windows != p.windows {
		return false
	}
	for _, k := range resources.Kinds {
		limit := p.capacity[k] + 1e-9
		if resources.KindFungibility(k) == resources.NonFungible {
			if p.guaranteed[k]+vm.Guaranteed[k] > limit {
				return false
			}
		}
		sums, d := p.demandSum[k], vm.sched[k]
		for t, s := range sums {
			if s+d[t] > limit {
				return false
			}
		}
	}
	return true
}

// Add inserts vm into the pool. It returns an error when the VM does not
// fit or its ID is already present; the pool is unchanged on error.
func (p *Pool) Add(vm *CVM) error {
	if _, ok := p.members[vm.ID]; ok {
		return fmt.Errorf("coachvm: vm %d already in pool", vm.ID)
	}
	if !p.Fits(vm) {
		return fmt.Errorf("coachvm: vm %d does not fit in pool", vm.ID)
	}
	p.members[vm.ID] = vm
	p.empty = false
	p.guaranteed = p.guaranteed.Add(vm.Guaranteed)
	for _, k := range resources.Kinds {
		sums, d := p.demandSum[k], vm.sched[k]
		for t := range sums {
			sums[t] += d[t]
		}
		p.backed[k] = peak(sums)
	}
	return nil
}

// Remove deletes the VM with the given ID, returning it (nil if absent).
func (p *Pool) Remove(id int) *CVM {
	vm, ok := p.members[id]
	if !ok {
		return nil
	}
	delete(p.members, id)
	p.guaranteed = p.guaranteed.Sub(vm.Guaranteed).ClampNonNegative()
	zero := len(p.members) == 0 && p.guaranteed == (resources.Vector{})
	for _, k := range resources.Kinds {
		sums, d := p.demandSum[k], vm.sched[k]
		for t := range sums {
			sums[t] -= d[t]
			if sums[t] < 0 {
				sums[t] = 0
			}
			zero = zero && sums[t] == 0
		}
		p.backed[k] = peak(sums)
	}
	p.empty = zero
	return vm
}

// Audit recomputes the pool's bookkeeping from its members and reports
// the first inconsistency: a guaranteed or per-window sum that is
// negative or drifts from the members' total by more than the 1e-9 slack
// Fits allows, a cached peak that differs in any bit from a fresh scan of
// the sums, or an Empty flag that does not match the state.
func (p *Pool) Audit() error {
	const slack = 1e-9
	var guaranteed resources.Vector
	var demand [resources.NumKinds][]float64
	for _, k := range resources.Kinds {
		demand[k] = make([]float64, p.windows.PerDay)
	}
	for _, vm := range p.members {
		guaranteed = guaranteed.Add(vm.Guaranteed)
		for _, k := range resources.Kinds {
			for t := range demand[k] {
				demand[k][t] += vm.sched[k][t]
			}
		}
	}
	zero := len(p.members) == 0
	for _, k := range resources.Kinds {
		if g := p.guaranteed[k]; g < 0 || math.Abs(g-guaranteed[k]) > slack {
			return fmt.Errorf("coachvm: pool guaranteed %v is %g, members sum to %g", k, g, guaranteed[k])
		}
		zero = zero && p.guaranteed[k] == 0
		if len(p.demandSum[k]) != p.windows.PerDay {
			return fmt.Errorf("coachvm: pool %v has %d window sums, want %d", k, len(p.demandSum[k]), p.windows.PerDay)
		}
		for t, s := range p.demandSum[k] {
			if s < 0 || math.Abs(s-demand[k][t]) > slack {
				return fmt.Errorf("coachvm: pool %v window %d demand is %g, members sum to %g", k, t, s, demand[k][t])
			}
			zero = zero && s == 0
		}
		if want := peak(p.demandSum[k]); math.Float64bits(p.backed[k]) != math.Float64bits(want) {
			return fmt.Errorf("coachvm: pool %v cached peak %g, window sums peak at %g", k, p.backed[k], want)
		}
	}
	if p.empty != zero {
		return fmt.Errorf("coachvm: pool empty flag %v, state says %v", p.empty, zero)
	}
	return nil
}

// MultiplexSavings returns, per resource, the amount saved by multiplexing
// the VA demands across windows instead of summing their peaks: sum over
// VMs of max_t VA_i,t minus max_t sum over VMs VA_i,t. This is the
// "Multiplex Saved" quantity illustrated in Fig. 16b.
func (p *Pool) MultiplexSavings() resources.Vector {
	var naive resources.Vector
	for _, vm := range p.members {
		for _, k := range resources.Kinds {
			var m float64
			for _, d := range vm.VADemand[k] {
				if d > m {
					m = d
				}
			}
			naive[k] += m
		}
	}
	return naive.Sub(p.Oversubscribed()).ClampNonNegative()
}
