package fleet

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"pcapsim/internal/disk"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
)

// The engine.
//
// Machines are sharded across workers in contiguous ID ranges. A worker
// simulates its shard one machine at a time: each machine's whole session
// is one sim.RunCells pass over its mixSource with a cell per policy —
// the same drive loop the experiment matrix and the daemon use — and
// policy p's result lands at results[p][id]. Machines never interact, so
// no machine's result depends on when, or next to whom, it is simulated.
//
// Within a shard, machines run grouped by device, in (Spec.Device, id)
// order. A machine's cells borrow their device runner's pooled runStates
// and return them on completion; grouping hands those states, with their
// grown file caches and event buffers, straight to the next machine on
// the same runner. Interleaving devices would cycle states through
// several pools, where a GC can drop them and the next machine regrows
// every buffer from scratch. Live simulation state is therefore one
// runState per policy per worker, whatever the fleet size or how many
// sessions overlap on the fleet clock.
//
// Determinism across worker counts comes from the fold: per-machine
// results land in fleet-indexed slices and are committed to each
// policy's aggregate strictly in machine-ID order, fixing every
// floating-point accumulation order.

// Result is a fleet run's aggregate accounting. Every field is identical
// — byte-for-byte under Render — for a given Config regardless of worker
// count, because the per-machine results are folded in machine-ID order.
type Result struct {
	// Policy is the evaluated policy's name.
	Policy string
	// Machines is the fleet size.
	Machines int
	// Executions, TotalIOs and DiskAccesses total the fleet's sessions.
	Executions   int64
	TotalIOs     int64
	DiskAccesses int64
	// Local and Global accumulate the per-machine idle-period outcome
	// counts (the paper's Figures 6 and 7, fleet-wide).
	Local  sim.Counts
	Global sim.Counts
	// Energy is the fleet's total disk energy.
	Energy disk.EnergyBreakdown
	// Cycles is the number of shutdowns performed fleet-wide.
	Cycles int64
	// Wakeups and WaitTime total the user-visible spin-up latency.
	Wakeups  int64
	WaitTime trace.Time
	// MachineTime is the summed per-machine session length; SimTime is
	// the fleet horizon (the latest arrival-plus-session end).
	MachineTime trace.Time
	SimTime     trace.Time
	// PeakConcurrent is the maximum number of simultaneously active
	// sessions, from the arrival/retirement interval sweep. It is a
	// property of the schedule, not of the worker count.
	PeakConcurrent int
	// WaitHist buckets machines by their session's total spin-up wait —
	// the fleet's latency-penalty distribution. Bucket i counts machines
	// with total wait in WaitHistLabels[i].
	WaitHist [7]int64
	// DeviceUse breaks the fleet down by device profile, in catalog
	// order.
	DeviceUse []DeviceUsage
}

// DeviceUsage is one device profile's share of a fleet run.
type DeviceUsage struct {
	Device   string
	Machines int
	EnergyJ  float64
}

// WaitHistLabels names Result.WaitHist's buckets.
var WaitHistLabels = [7]string{"0", "<=2s", "<=5s", "<=15s", "<=60s", "<=300s", ">300s"}

// waitBucket maps a machine's total session wait to its histogram bucket.
func waitBucket(w trace.Time) int {
	switch {
	case w == 0:
		return 0
	case w <= 2*trace.Second:
		return 1
	case w <= 5*trace.Second:
		return 2
	case w <= 15*trace.Second:
		return 3
	case w <= 60*trace.Second:
		return 4
	case w <= 300*trace.Second:
		return 5
	default:
		return 6
	}
}

// Run simulates the fleet and returns one aggregate result per policy,
// in Config.Policy's order.
func (f *Fleet) Run() ([]*Result, error) {
	n := f.cfg.Machines
	workers := min(f.cfg.Workers, n)
	results := make([][]sim.AppResult, len(f.names))
	for p := range results {
		results[p] = make([]sim.AppResult, n)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		ids := make([]int, hi-lo)
		for i := range ids {
			ids[i] = lo + i
		}
		wg.Add(1)
		go func(w int, ids []int) {
			defer wg.Done()
			errs[w] = f.runShard(ids, results)
		}(w, ids)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]*Result, len(results))
	for p := range results {
		out[p] = f.fold(f.names[p], results[p])
	}
	return out, nil
}

// runShard simulates the given machines one at a time, grouped by
// device, writing machine id's result under policy p into results[p][id].
// The order the ids arrive in does not matter: the run order is
// (device, id).
func (f *Fleet) runShard(ids []int, results [][]sim.AppResult) error {
	type job struct{ dev, id int }
	jobs := make([]job, len(ids))
	for i, id := range ids {
		jobs[i] = job{dev: f.Spec(id).Device, id: id}
	}
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].dev != jobs[j].dev {
			return jobs[i].dev < jobs[j].dev
		}
		return jobs[i].id < jobs[j].id
	})
	for _, j := range jobs {
		res, errs := sim.RunCells(f.newMixSource(j.id), f.cells[j.dev])
		for p, err := range errs {
			if err != nil {
				return fmt.Errorf("fleet: machine %d: %w", j.id, err)
			}
			results[p][j.id] = *res[p]
		}
	}
	return nil
}

// fold commits one policy's per-machine results to its aggregate
// strictly in machine-ID order — the single place the fleet's
// floating-point accumulation order is defined — and sweeps the
// arrival/retirement intervals for the concurrency peak.
func (f *Fleet) fold(policy string, results []sim.AppResult) *Result {
	out := &Result{
		Policy:    policy,
		Machines:  len(results),
		DeviceUse: make([]DeviceUsage, len(f.devices)),
	}
	for i := range out.DeviceUse {
		out.DeviceUse[i].Device = f.devices[i].Name
	}
	type edge struct {
		at    trace.Time
		delta int
	}
	edges := make([]edge, 0, 2*len(results))
	for id := range results {
		r := &results[id]
		spec := f.Spec(id)
		out.Executions += int64(r.Executions)
		out.TotalIOs += int64(r.TotalIOs)
		out.DiskAccesses += int64(r.DiskAccesses)
		out.Local.Add(r.Local)
		out.Global.Add(r.Global)
		out.Energy.Add(r.Energy)
		out.Cycles += int64(r.Cycles)
		out.Wakeups += int64(r.Wakeups)
		out.WaitTime += r.WaitTime
		out.MachineTime += r.SimTime
		end := spec.Arrival + r.SimTime
		if end > out.SimTime {
			out.SimTime = end
		}
		out.WaitHist[waitBucket(r.WaitTime)]++
		du := &out.DeviceUse[spec.Device]
		du.Machines++
		du.EnergyJ += r.Energy.Total()
		edges = append(edges, edge{at: spec.Arrival, delta: 1}, edge{at: end, delta: -1})
	}
	// Arrivals sort before retirements at the same instant, so a session
	// ending exactly as another starts counts both as concurrent.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta
	})
	cur := 0
	for _, e := range edges {
		cur += e.delta
		if cur > out.PeakConcurrent {
			out.PeakConcurrent = cur
		}
	}
	return out
}

// Render formats the aggregate report. The output is byte-identical for a
// given Config at any worker count.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d machines under %s\n", r.Machines, r.Policy)
	fmt.Fprintf(&b, "  sessions:  %d executions, %.1f machine-hours, horizon %.2f h, peak concurrency %d\n",
		r.Executions, r.MachineTime.Seconds()/3600, r.SimTime.Seconds()/3600, r.PeakConcurrent)
	fmt.Fprintf(&b, "  I/O:       %d events, %d disk accesses after cache\n", r.TotalIOs, r.DiskAccesses)
	fmt.Fprintf(&b, "  energy:    %.1f J (busy %.1f, idle-short %.1f, idle-long %.1f, power-cycle %.1f)\n",
		r.Energy.Total(), r.Energy.Busy, r.Energy.IdleShort, r.Energy.IdleLong, r.Energy.PowerCycle)
	fmt.Fprintf(&b, "  shutdowns: %d issued (%d hit, %d miss), %d long periods, %d unexploited\n",
		r.Global.Shutdowns(), r.Global.Hits(), r.Global.Misses(), r.Global.LongPeriods, r.Global.NotPredicted)
	fmt.Fprintf(&b, "  latency:   %d wakeups, %.1f s total wait\n", r.Wakeups, r.WaitTime.Seconds())
	fmt.Fprintf(&b, "  wait/machine:")
	for i, label := range WaitHistLabels {
		fmt.Fprintf(&b, " %s:%d", label, r.WaitHist[i])
	}
	b.WriteString("\n")
	for _, du := range r.DeviceUse {
		fmt.Fprintf(&b, "  device %-32s %6d machines %14.1f J\n", du.Device, du.Machines, du.EnergyJ)
	}
	return b.String()
}
