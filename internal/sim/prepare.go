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
	// exit is the time of the process's exit; hasExit reports whether the
	// process exited within the trace. prepare rejects any I/O by
	// the process after it.
	exit    trace.Time
	hasExit bool
	// last is the index into execution.accesses of the process's latest
	// access so far, or -1; prepare uses it to fill localGap.
	last int
}

// execution is one application execution prepared for simulation: the
// trace filtered through the file cache into disk accesses, each tagged
// with its process's dense slot.
//
// Slots number the execution's processes 0, 1, … in order of first
// sighting (a process's first access or exit), so the per-access path
// indexes slices instead of looking pids up in maps.
//
// prepare admits only executions whose events run forward in time and
// whose processes reach the disk only before they exit (see
// InvalidExecutionError), so accesses are in time order, each period
// from one access to the next (or to end) has a non-negative length, and
// a process stays live up to its last access.
type execution struct {
	app string
	// index is the execution's position within the workload.
	index int
	// accesses is the merged disk-access stream in time order.
	accesses []trace.Event
	// slot[i] is the slot of accesses[i]'s process.
	slot []int32
	// localGap[i] is the time from accesses[i] to the same process's
	// next access, or -1 if it has none.
	localGap []trace.Time
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
// filtered-event buffer, the prepared execution, the pid→slot map and
// the execution's service schedule. A pass owns one whatever its cell
// count, and every runner draws from prepPool (prepare rebuilds the
// cache for another configuration), so these execution-sized buffers
// exist once per concurrent pass. Filtering copies events, so it never
// holds a borrowed slice. The schedule, and the idle table beside it, are
// computed here for retained executions too, so they never add to what a
// retaining runner keeps.
//
// runState is a machine's pooled step working set: slot-indexed
// predictors, their FutureAware views and decisions, and the slots with
// a decision. Each Runner pools its own.
//
// Either is owned by one pass or machine at a time and overwritten at the
// next execution, so nothing reachable from it may be retained.
type prepState struct {
	cacheCfg   fscache.Config
	cache      *fscache.Cache
	filtered   []trace.Event
	ex         execution
	exited     map[trace.PID]trace.Time // pid → exit time of the input's exited processes
	slots      map[trace.PID]int32      // pid → slot of the execution in ex
	serviceEnd []trace.Time             // when ex's access i finishes service (see schedule)
	svc        []float64                // ex's access i's service time in seconds
	idle       []float64                // seconds from serviceEnd[i] to the period's end (see schedule)
}

type runState struct {
	preds   []predictor.Process
	fa      []predictor.FutureAware // preds[slot] as FutureAware, or nil
	dec     []decisionState
	decided []int32 // slots with a standing decision, sorted by pid
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
	clear(rs.fa[:cap(rs.fa)])
	r.statePool.Put(rs)
}

// schedule computes ex's service schedule under cfg's service model:
// accesses queue FIFO, and service i starts at max(arrival, previous
// completion). Beside it, it tabulates each access's idle seconds: from
// its service end to the next arrival (or to ex.end after the last
// access), 0 when service spills past that arrival. The table depends on
// the pass's PassConfig only, not on the disk, so every cell of the pass
// prices a period that keeps spinning from it (see machine.run).
func (ps *prepState) schedule(ex *execution, cfg *Config) {
	ps.serviceEnd, ps.svc, ps.idle = ps.serviceEnd[:0], ps.svc[:0], ps.idle[:0]
	var prevEnd trace.Time
	for i, a := range ex.accesses {
		t := cfg.ServiceBase + trace.FromSeconds(float64(a.Size)/cfg.ServiceBandwidth)
		prevEnd = max(a.Time, prevEnd) + t
		ps.serviceEnd = append(ps.serviceEnd, prevEnd)
		ps.svc = append(ps.svc, t.Seconds())
		T1 := ex.end
		if i+1 < len(ex.accesses) {
			T1 = ex.accesses[i+1].Time
		}
		idle := 0.0
		if prevEnd <= T1 {
			idle = (T1 - prevEnd).Seconds()
		}
		ps.idle = append(ps.idle, idle)
	}
}

// MaxIOBytes bounds the size of one input I/O. The file cache turns an
// I/O into one disk access per block it misses, so without a bound one
// event of int32 size becomes half a million accesses. The workload
// generators emit 4 KiB I/Os.
const MaxIOBytes = 16 << 20

// InvalidExecutionError rejects an execution that breaks the step path's
// assumptions: an event earlier than the one before it; an I/O or a
// second exit by a process after its exit; an event naming the file
// cache's flush daemon's pid, which the daemon's write-backs use (it
// writes back after any exit, and its accesses stay out of the
// per-process statistics); or an I/O with a zero PC, a negative size or
// a size over MaxIOBytes. trace.Validator forbids forking an exited pid
// again, so such an I/O is never a new process.
type InvalidExecutionError struct {
	App  string
	Exec int
	// Time is the offending event's time.
	Time trace.Time
	// Reason says which assumption the event breaks.
	Reason string
}

func (e *InvalidExecutionError) Error() string {
	return fmt.Sprintf("sim: invalid execution %s/%d at %v: %s", e.App, e.Exec, e.Time, e.Reason)
}

// prepare filters one execution trace through the run's file cache and
// indexes the resulting disk accesses for the runner, reusing every buffer
// from the previous execution.
func (ps *prepState) prepare(tr *trace.Trace, cacheCfg fscache.Config) (*execution, error) {
	totalIOs := 0
	var prev trace.Time
	clear(ps.exited)
	// checked is the last I/O pid found not to have exited, valid while
	// checkedOK: the exit map is read only when the pid changes or after
	// an exit, never per event.
	var checked trace.PID
	checkedOK := false
	for _, e := range tr.Events {
		var reason string
		switch {
		case e.Time < prev:
			reason = fmt.Sprintf("time runs backwards from %v", prev)
		case e.Pid == fscache.KernelFlushPID || e.Kind == trace.KindFork && e.Child == fscache.KernelFlushPID:
			reason = fmt.Sprintf("%v event names pid %d, reserved for the file cache's flush daemon", e.Kind, fscache.KernelFlushPID)
		case e.Kind == trace.KindExit:
			if at, ok := ps.exited[e.Pid]; ok {
				reason = fmt.Sprintf("second exit of pid %d, which exited at %v", e.Pid, at)
				break
			}
			if ps.exited == nil {
				ps.exited = make(map[trace.PID]trace.Time)
			}
			ps.exited[e.Pid] = e.Time
			checkedOK = false
		case e.Kind != trace.KindIO: // a fork: nothing more to check
		case e.PC == 0:
			reason = "I/O with a zero PC"
		case e.Size < 0:
			reason = fmt.Sprintf("I/O with negative size %d", e.Size)
		case e.Size > MaxIOBytes:
			reason = fmt.Sprintf("I/O of %d bytes, over the %d-byte bound", e.Size, MaxIOBytes)
		default:
			totalIOs++
			if len(ps.exited) > 0 && (!checkedOK || e.Pid != checked) {
				if at, ok := ps.exited[e.Pid]; ok {
					reason = fmt.Sprintf("I/O by pid %d after its exit at %v", e.Pid, at)
				}
				checked, checkedOK = e.Pid, true
			}
		}
		if reason != "" {
			return nil, &InvalidExecutionError{App: tr.App, Exec: tr.Execution, Time: e.Time, Reason: reason}
		}
		prev = e.Time
	}
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
	ex.localGap = ex.localGap[:0]
	ex.procs = ex.procs[:0]
	ex.exits = ex.exits[:0]
	ex.totalIOs = totalIOs
	ex.cacheStats = ps.cache.Stats()
	ex.end = tr.Duration()

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
			p := &ex.procs[s]
			idx := len(ex.accesses)
			ex.accesses = append(ex.accesses, e)
			ex.slot = append(ex.slot, s)
			ex.localGap = append(ex.localGap, -1)
			// Time the process's previous access's gap to this one.
			if p.last >= 0 {
				ex.localGap[p.last] = e.Time - ex.accesses[p.last].Time
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
	c.localGap = slices.Clone(ex.localGap)
	c.procs = slices.Clone(ex.procs)
	c.exits = slices.Clone(ex.exits)
	return &c
}
