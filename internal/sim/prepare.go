package sim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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

// retained keeps the prepared execution of every pinned trace (see
// trace.Pinned) a retaining runner's passes read, so later passes over
// the same trace skip the file-cache filter and the indexing. Each entry
// is prepared once, under singleflight, into exact-length slices that
// share nothing with pooled prepState memory; passes then read it
// concurrently and never write it. Entries live as long as the runner,
// and the map key pins the trace itself.
type retained struct {
	mu       sync.Mutex
	m        map[*trace.Trace]*retainedExec
	prepares atomic.Int64
}

type retainedExec struct {
	once sync.Once
	ex   *execution
	err  error
}

// RetainPrepared makes the runner keep the prepared execution of every
// pinned trace its passes read (see trace.Pinned), for the runner's
// lifetime. It trades memory, about 52 bytes per disk access kept, for
// skipping the file-cache filter when the same traces are replayed
// again, as a long-lived server does. Call it before the runner's first
// pass.
func (r *Runner) RetainPrepared() {
	r.kept = &retained{m: make(map[*trace.Trace]*retainedExec)}
}

// RetainedPrepares reports how many executions a retaining runner has
// prepared and kept: one per distinct pinned trace, however many passes
// read it. It is 0 for a runner that does not retain.
func (r *Runner) RetainedPrepares() int64 {
	if r.kept == nil {
		return 0
	}
	return r.kept.prepares.Load()
}

// get returns tr's retained execution, preparing it on first use.
func (k *retained) get(tr *trace.Trace, cacheCfg fscache.Config) (*execution, error) {
	k.mu.Lock()
	e, ok := k.m[tr]
	if !ok {
		e = &retainedExec{}
		k.m[tr] = e
	}
	k.mu.Unlock()
	e.once.Do(func() {
		k.prepares.Add(1)
		ps := getPrep()
		defer prepPool.Put(ps)
		ex, err := ps.prepare(tr, cacheCfg)
		if err != nil {
			e.err = err
			return
		}
		e.ex = ex.clone()
	})
	return e.ex, e.err
}

// clone copies a prepared execution into fresh exact-length slices.
func (ex *execution) clone() *execution {
	c := *ex
	c.accesses = slices.Clone(ex.accesses)
	c.slot = slices.Clone(ex.slot)
	c.nextLocal = slices.Clone(ex.nextLocal)
	c.procs = slices.Clone(ex.procs)
	c.exits = slices.Clone(ex.exits)
	return &c
}
