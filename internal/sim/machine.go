package sim

import (
	"fmt"

	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// The stepable per-machine state machine.
//
// A machine is one simulated user machine: a policy, its predictor state,
// a pooled runState, and a cursor into a stream of executions. It is the
// unit the fleet engine (internal/fleet) multiplexes over a shared virtual
// clock, and RunCells (runner.go) steps one machine per cell through each
// shared execution, RunSource being its one-cell case. The extraction
// preserves the original runSource/runExecution operation order bit for
// bit: every float accumulation into the AppResult happens at the same
// point in the same sequence, so results are byte-identical to the
// pre-extraction simulator (enforced by the experiments suite golden and
// the differential tests).
//
// Step protocol:
//
//	m, err := r.newMachine(src, pol, tr)
//	for { if _, ok := m.nextTime(); !ok { break }; m.step() }
//	res, err := m.finish()
//
// nextTime returns the session time of the machine's next disk access —
// the local virtual clock, where executions abut end-to-start (execution
// k+1's time 0 is the session instant at which execution k ended). It
// transparently pulls, prepares and opens executions from the source as
// the current one drains; executions with no disk accesses are accounted
// (pure idle) and skipped in the same call. step processes exactly one
// access: the per-process predictor update, the global combiner decision
// for the period the access opens, its classification and its energy
// accounting. finish validates the source, resolves StateEntries and
// returns the pooled scratch state; it must be called exactly once, after
// which the machine is dead.
type machine struct {
	r   *Runner
	src trace.Source
	pol Policy
	tr  *tracedRun
	rs  *runState
	res *AppResult
	// hook receives a record per evaluated global idle period. It is
	// captured from Runner.PeriodHook at construction (the documented
	// contract: install hooks before the first run) so the machine layer
	// never reads runner state mid-run.
	hook func(PeriodRecord)

	newFactory func() predictor.Factory
	f          predictor.Factory
	borrows    bool
	execIdx    int // number of executions pulled from the source

	ex   *execution // current open execution, nil before the first pull
	i    int        // next access index within ex
	base trace.Time // session time at which the current execution began

	err  error
	done bool // source exhausted or failed; no further pulls
}

// newMachine validates the policy and assembles a machine over src. The
// machine owns a pooled runState from construction until finish.
func (r *Runner) newMachine(src trace.Source, pol Policy, tr *tracedRun) (*machine, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	newFactory := pol.NewFactory
	if newFactory == nil {
		// GlobalOracle without an explicit factory: use the local oracle
		// so per-process (local) statistics stay meaningful.
		breakeven := r.cfg.Disk.Breakeven
		newFactory = func() predictor.Factory { return predictor.NewOracle(breakeven) }
	}
	// Sources that expose their current execution as a slice (ExecSlicer)
	// lend that slice out only until their next NextExec; it must not be
	// adopted as the reusable drain buffer, or a pooled runState could
	// later scribble over a buffer the source has recycled elsewhere.
	_, borrows := src.(trace.ExecSlicer)
	return &machine{
		r:   r,
		src: src,
		pol: pol,
		tr:  tr,
		rs:  r.getState(),
		res: &AppResult{
			Policy:       pol.Name,
			StateEntries: -1,
		},
		hook:       r.PeriodHook,
		newFactory: newFactory,
		borrows:    borrows,
	}, nil
}

// nextTime returns the session time of the machine's next access, pulling
// and opening executions from the source as needed. ok=false means the
// machine has no further events — the source is exhausted or failed (see
// finish) — and step must not be called.
func (m *machine) nextTime() (trace.Time, bool) {
	for m.ex == nil || m.i >= len(m.ex.accesses) {
		if m.ex != nil {
			// The current execution is fully processed: advance the
			// session clock past it. Executions abut end-to-start.
			m.base += m.ex.end
			m.ex = nil
		}
		if m.done || !m.pullExecution() {
			return 0, false
		}
	}
	return m.base + m.ex.accesses[m.i].Time, true
}

// pullExecution pulls, prepares and opens the machine's next execution.
// It returns false when the source is exhausted or an error occurred.
func (m *machine) pullExecution() bool {
	app, exec, ok := m.src.NextExec()
	if !ok || !m.advance(app) {
		m.done = true
		return false
	}
	ex, err := m.load(app, exec)
	if err != nil {
		m.fail(err)
		return false
	}
	m.openExecution(ex)
	return true
}

// load drains execution (app, exec) from the source and prepares it
// through the file cache in the machine's runState.
func (m *machine) load(app string, exec int) (*execution, error) {
	rs := m.rs
	events := trace.Drain(m.src, rs.buf)
	if !m.borrows {
		rs.buf = events
	}
	rs.view.App, rs.view.Execution, rs.view.Events = app, exec, events
	return rs.prepare(&rs.view, m.r.cfg.Cache)
}

// advance runs the factory policy (fresh, reused, or round-tripped)
// ahead of execution app. A failed round trip fails the machine.
func (m *machine) advance(app string) bool {
	if m.execIdx == 0 {
		m.res.App = app
	}
	switch {
	case m.f == nil || !m.pol.Reuse:
		m.f = m.newFactory()
	case m.execIdx > 0 && m.pol.RoundTrip != nil:
		nf, err := m.pol.RoundTrip(m.f)
		if err != nil {
			m.fail(fmt.Errorf("sim: round-tripping %s after execution %d: %w", m.pol.Name, m.execIdx-1, err))
			return false
		}
		m.f = nf
	}
	return true
}

// fail latches the machine's first error and stops further pulls.
func (m *machine) fail(err error) {
	if m.err == nil {
		m.err = err
	}
	m.done = true
}

// openExecution makes ex the current execution and runs its accounting
// prologue: totals, the FIFO busy-time schedule, the leading unmanaged
// idle, and the reset of the per-pid predictor and decision working set.
func (m *machine) openExecution(ex *execution) {
	m.execIdx++
	r, rs, res := m.r, m.rs, m.res
	res.Executions++
	d := &r.cfg.Disk
	res.TotalIOs += ex.totalIOs
	res.DiskAccesses += len(ex.accesses)
	res.SimTime += ex.end
	res.Cache.Reads += ex.cacheStats.Reads
	res.Cache.Writes += ex.cacheStats.Writes
	res.Cache.ReadHits += ex.cacheStats.ReadHits
	res.Cache.DiskReads += ex.cacheStats.DiskReads
	res.Cache.FlushWrites += ex.cacheStats.FlushWrites
	res.Cache.EvictionWrites += ex.cacheStats.EvictionWrites

	m.ex = ex
	m.i = 0

	if len(ex.accesses) == 0 {
		// A silent execution: the disk just idles. nextTime retires it
		// immediately (there is nothing to step).
		r.accountIdle(res, 0, ex.end)
		return
	}

	// Busy-time model: accesses queue FIFO; service i starts at
	// max(arrival, previous completion).
	serviceEnd := rs.serviceEnd[:0]
	for range ex.accesses {
		serviceEnd = append(serviceEnd, 0)
	}
	rs.serviceEnd = serviceEnd
	var prevEnd trace.Time
	for i, a := range ex.accesses {
		start := a.Time
		if prevEnd > start {
			start = prevEnd
		}
		prevEnd = start + r.serviceTime(a)
		serviceEnd[i] = prevEnd
		res.Energy.Busy += r.serviceTime(a).Seconds() * d.BusyPower
	}

	// Leading idle before the first access: the disk spins unmanaged.
	r.accountIdle(res, 0, ex.accesses[0].Time)

	if rs.preds == nil {
		rs.preds = make(map[trace.PID]predictor.Process)
		rs.dec = make(map[trace.PID]decisionState)
	}
	clear(rs.preds)
	clear(rs.dec)
	rs.decided = rs.decided[:0] // sorted pids with decisions, for determinism
}

// step processes the machine's next access: it feeds the access to its
// process's predictor, merges the standing decisions through the global
// combiner over the idle period the access opens, classifies the period
// and charges its energy. Callers must have observed ok=true from
// nextTime since the last step.
func (m *machine) step() {
	r, rs, res, ex, f, pol, d := m.r, m.rs, m.res, m.ex, m.f, m.pol, &m.r.cfg.Disk
	i := m.i
	m.i++
	a := ex.accesses[i]
	preds, dec := rs.preds, rs.dec
	serviceEnd := rs.serviceEnd

	pred, ok := preds[a.Pid]
	if !ok {
		pred = f.NewProcess(a.Pid)
		preds[a.Pid] = pred
	}
	nextLocal := ex.nextLocal[i]
	if fa, isFA := pred.(predictor.FutureAware); isFA {
		if nextLocal >= 0 {
			fa.SetNextGap(ex.accesses[nextLocal].Time-a.Time, true)
		} else {
			fa.SetNextGap(0, false)
		}
	}
	decision := pred.OnAccess(predictor.Access{
		Time:   a.Time,
		PC:     a.PC,
		FD:     a.FD,
		Access: a.Access,
		Block:  a.Block,
	})

	// Local (per-process) classification of the period that follows.
	// The kernel flush daemon is not one of the application's
	// processes, so it stays out of the per-process statistics (it
	// still feeds the global combiner below).
	if nextLocal >= 0 && a.Pid != fscache.KernelFlushPID {
		gap := ex.accesses[nextLocal].Time - a.Time
		classify(&res.Local, gap, decision, d.Breakeven)
	}

	// Update the standing decision for the global combiner.
	st := decisionState{ready: infTime, source: decision.Source}
	if decision.Shutdown {
		st.ready = a.Time + decision.Delay
	}
	if _, had := dec[a.Pid]; !had {
		// Insert a.Pid at its sorted position (equivalent to the
		// append-and-sort it replaces, without sort.Slice's allocation).
		decided := rs.decided
		j := len(decided)
		decided = append(decided, 0)
		for j > 0 && decided[j-1] > a.Pid {
			decided[j] = decided[j-1]
			j--
		}
		decided[j] = a.Pid
		rs.decided = decided
	}
	dec[a.Pid] = st

	// Global period from this access to the next one in the merged
	// stream (or the tail of the execution).
	T0 := a.Time
	T1 := ex.end
	terminal := i+1 >= len(ex.accesses)
	if !terminal {
		T1 = ex.accesses[i+1].Time
	}
	if T1 < T0 {
		T1 = T0
	}
	gap := T1 - T0
	long := gap >= d.Breakeven

	var s trace.Time
	var src predictor.Source
	var found bool
	var decider trace.PID
	if pol.GlobalOracle {
		if long {
			s, src, found = T0, predictor.SourcePrimary, true
			decider = a.Pid
		}
	} else {
		s, src, found, decider = r.combine(ex, dec, rs.decided, T0, T1)
	}
	if m.tr != nil {
		s, src, found = m.tr.decide(r, ex, a, serviceEnd[i], T0, T1, s, src, found, terminal, long)
	}
	if m.hook != nil && !terminal {
		m.hook(PeriodRecord{
			Execution: ex.index,
			Start:     T0, End: T1,
			LastPid: a.Pid, LastPC: a.PC,
			Shutdown: found, At: s, Source: src, DeciderPid: decider,
		})
	}

	if !terminal {
		globalDecision := predictor.Decision{Shutdown: found, Delay: s - T0, Source: src}
		classify(&res.Global, gap, globalDecision, d.Breakeven)
	}
	r.accountPeriod(res, serviceEnd[i], T1, s, found, long, src)
}

// finish closes the machine: it surfaces any latched or source error,
// rejects empty workloads, resolves the policy's learned-state size, and
// returns the scratch state to the runner's pool. The machine must not be
// used afterwards.
func (m *machine) finish() (*AppResult, error) {
	defer m.release()
	if m.err != nil {
		return nil, m.err
	}
	if err := m.src.Err(); err != nil {
		return nil, fmt.Errorf("sim: reading trace source: %w", err)
	}
	if m.res.Executions == 0 {
		return nil, fmt.Errorf("sim: no traces")
	}
	if sf, ok := m.f.(SizedFactory); ok {
		m.res.StateEntries = sf.StateSize()
	}
	return m.res, nil
}

// release returns the pooled state exactly once.
func (m *machine) release() {
	if m.rs != nil {
		m.r.putState(m.rs)
		m.rs = nil
		m.ex = nil
	}
}

// Machine is the exported stepable simulation of one machine's session: a
// policy replayed over a stream of executions, advanced one disk access at
// a time. It is the building block of the fleet engine (internal/fleet),
// which orders many machines' next events on a shared virtual clock.
//
// A Machine is a single-goroutine value. Drive it with NextTime/Step until
// NextTime reports ok=false, then call Finish exactly once; Finish returns
// the aggregated result (or the first error) and recycles the machine's
// pooled scratch state, after which the Machine is dead. Abandoning a
// Machine without Finish leaks its runState from the runner's pool — it
// is garbage collected, but the recycling benefit is lost.
type Machine struct {
	m *machine
}

// NewMachine returns a stepable Machine simulating src under pol. The
// Machine borrows a pooled runState from the Runner; Finish returns it.
func (r *Runner) NewMachine(src trace.Source, pol Policy) (*Machine, error) {
	m, err := r.newMachine(src, pol, nil)
	if err != nil {
		return nil, err
	}
	return &Machine{m: m}, nil
}

// NextTime returns the session-clock time of the machine's next disk
// access. The session clock starts at 0 and runs across executions, which
// abut end-to-start. ok=false means the session is over (or the source
// failed — Finish reports which).
func (fm *Machine) NextTime() (trace.Time, bool) { return fm.m.nextTime() }

// Step processes the machine's next access. It must only be called after
// NextTime reported ok=true.
func (fm *Machine) Step() { fm.m.step() }

// Finish completes the session and returns the aggregated result. It must
// be called exactly once.
func (fm *Machine) Finish() (*AppResult, error) { return fm.m.finish() }
