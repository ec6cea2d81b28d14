package sim

import (
	"fmt"
	"sync"

	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// procInfo is the process at one slot of an execution.
type procInfo struct {
	pid trace.PID
	// exit is the time of the process's last exit; hasExit reports
	// whether the process exited within the trace.
	exit    trace.Time
	hasExit bool
	// last is the index into execution.accesses of the process's latest
	// access so far, or -1; prepare uses it to link nextLocal.
	last int
}

// execution is one application execution prepared for simulation: the
// trace filtered through the file cache into disk accesses, each tagged
// with its process's dense slot.
//
// Slots number the execution's processes 0, 1, … in order of first
// sighting (a process's first access or exit; a pid that exits and is
// forked again keeps its slot), so the per-access path indexes slices
// instead of looking pids up in maps.
type execution struct {
	app string
	// index is the execution's position within the workload.
	index int
	// accesses is the merged disk-access stream in time order.
	accesses []trace.Event
	// slot[i] is the slot of accesses[i]'s process.
	slot []int32
	// nextLocal[i] is the index (into accesses) of the next access by the
	// same process after accesses[i], or -1.
	nextLocal []int
	// procs is indexed by slot.
	procs []procInfo
	// exits lists processes' exit events sorted by time.
	exits []trace.Event
	// totalIOs is the pre-cache I/O event count.
	totalIOs int
	// cacheStats is the file cache activity for this execution.
	cacheStats fscache.Stats
	// end is the time of the last trace event.
	end trace.Time
}

// prepState is a pass's pooled scratch space for preparing executions:
// the file cache (arena reset, not reallocated, between executions), the
// filtered-event buffer, the prepared execution and the pid→slot map. A
// pass owns one whatever its cell count, and every runner draws from
// prepPool (prepare rebuilds the cache for another configuration), so
// these execution-sized buffers exist once per concurrent pass. Filtering
// copies events, so it never holds a borrowed slice.
//
// runState is a machine's pooled step working set: slot-indexed
// predictors and decisions, the slots with a decision and the service
// schedule. Each Runner pools its own.
//
// Either is owned by one pass or machine at a time and overwritten at the
// next execution, so nothing reachable from it may be retained.
type prepState struct {
	cacheCfg fscache.Config
	cache    *fscache.Cache
	filtered []trace.Event
	ex       execution
	slots    map[trace.PID]int32 // pid → slot of the execution in ex
}

type runState struct {
	serviceEnd []trace.Time
	preds      []predictor.Process
	dec        []decisionState
	decided    []int32 // slots with a standing decision, sorted by pid
}

var prepPool sync.Pool

// getPrep and getState fetch pooled scratch state; the caller takes
// ownership and must return it to prepPool or with putState.
//
//pcaplint:owner-transfer
func getPrep() *prepState {
	if ps, ok := prepPool.Get().(*prepState); ok {
		return ps
	}
	return &prepState{}
}

//pcaplint:owner-transfer
func (r *Runner) getState() *runState {
	if rs, ok := r.statePool.Get().(*runState); ok {
		return rs
	}
	return &runState{}
}

// putState returns a runState to the pool, dropping predictor references
// so pooled states do not pin a finished run's learned state; the
// containers themselves are kept.
func (r *Runner) putState(rs *runState) {
	clear(rs.preds[:cap(rs.preds)])
	r.statePool.Put(rs)
}

// prepare filters one execution trace through the run's file cache and
// indexes the resulting disk accesses for the runner, reusing every buffer
// from the previous execution.
func (ps *prepState) prepare(tr *trace.Trace, cacheCfg fscache.Config) (*execution, error) {
	if ps.cache == nil || ps.cacheCfg != cacheCfg {
		cache, err := fscache.New(cacheCfg)
		if err != nil {
			return nil, err
		}
		ps.cache, ps.cacheCfg = cache, cacheCfg
	} else {
		ps.cache.Reset()
	}
	filtered, err := ps.cache.FilterInto(ps.filtered[:0], tr.Events)
	if err != nil {
		return nil, fmt.Errorf("sim: filtering %s/%d: %w", tr.App, tr.Execution, err)
	}
	ps.filtered = filtered

	ex := &ps.ex
	if ps.slots == nil {
		ps.slots = make(map[trace.PID]int32)
	} else {
		clear(ps.slots)
	}
	ex.app = tr.App
	ex.index = tr.Execution
	ex.accesses = ex.accesses[:0]
	ex.slot = ex.slot[:0]
	ex.nextLocal = ex.nextLocal[:0]
	ex.procs = ex.procs[:0]
	ex.exits = ex.exits[:0]
	ex.totalIOs = 0
	ex.cacheStats = ps.cache.Stats()
	ex.end = tr.Duration()

	for _, e := range tr.Events {
		if e.IsIO() {
			ex.totalIOs++
		}
	}
	slotOf := func(pid trace.PID) int32 {
		s, ok := ps.slots[pid]
		if !ok {
			s = int32(len(ex.procs))
			ps.slots[pid] = s
			ex.procs = append(ex.procs, procInfo{pid: pid, last: -1})
		}
		return s
	}
	for _, e := range filtered {
		switch e.Kind {
		case trace.KindExit:
			p := &ex.procs[slotOf(e.Pid)]
			p.exit = e.Time
			p.hasExit = true
			ex.exits = append(ex.exits, e)
		case trace.KindIO:
			s := slotOf(e.Pid)
			idx := len(ex.accesses)
			ex.accesses = append(ex.accesses, e)
			ex.slot = append(ex.slot, s)
			ex.nextLocal = append(ex.nextLocal, -1)
			// Link the process's previous access to this one.
			p := &ex.procs[s]
			if p.last >= 0 {
				ex.nextLocal[p.last] = idx
			}
			p.last = idx
		}
	}
	return ex, nil
}
