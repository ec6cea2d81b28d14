package sim

import (
	"fmt"
	"slices"

	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// The per-machine state machine.
//
// A machine is one simulation's state: a policy, its predictor state, a
// pooled runState, and the execution being stepped. drive (runner.go)
// pulls each execution from the source once and steps every machine
// through it; RunCells runs one machine per cell, RunSource being its
// one-cell case, and the fleet engine (internal/fleet) runs each fleet
// machine's session as one RunCells pass with a cell per policy. The
// extraction preserves the original runSource/runExecution operation
// order bit for bit: every float accumulation into the AppResult happens
// at the same point in the same sequence, so results are byte-identical
// to the pre-extraction simulator (enforced by the experiments suite
// golden and the differential tests).
//
// Per execution, drive calls advance (the policy's factory step),
// prepares the borrowed execution and its service schedule once in the
// pass's prepState, then calls openExecution and step once per access on
// each machine. openExecution runs the execution's accounting prologue;
// an execution with no disk accesses is accounted as pure idle there and
// has nothing to step. step processes exactly one
// access: the per-process predictor update, the global combiner decision
// for the period the access opens, its classification and its energy
// accounting. finish validates the source, resolves StateEntries and
// returns the pooled scratch state; it must be called exactly once,
// after which the machine is dead.
type machine struct {
	r   *Runner
	src trace.Source
	pol Policy
	tr  *tracedRun
	rs  *runState
	res *AppResult

	newFactory func() predictor.Factory
	f          predictor.Factory

	ex         *execution   // current open execution, nil before the first pull
	i          int          // next access index within ex
	serviceEnd []trace.Time // the pass's service schedule for ex (see prepState)
	idle       []float64    // the pass's idle table for ex (see prepState.schedule)
	exit       int          // index of ex's first exit after the last combined period's start

	err error
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
		newFactory: newFactory,
	}, nil
}

// advance runs the factory policy (fresh or reused) ahead of execution
// app.
func (m *machine) advance(app string) {
	if m.res.Executions == 0 {
		m.res.App = app
	}
	if m.f == nil || !m.pol.Reuse {
		m.f = m.newFactory()
	}
}

// openExecution makes ex the current execution and runs its accounting
// prologue: totals, the busy energy of the pass's service schedule in ps
// (see prepState.schedule), the leading unmanaged idle, and the reset of
// the slot-indexed predictor and decision working set.
func (m *machine) openExecution(ex *execution, ps *prepState) {
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
	m.serviceEnd = ps.serviceEnd
	m.idle = ps.idle
	m.exit = 0

	if len(ex.accesses) == 0 {
		// A silent execution: the disk just idles; there is nothing to
		// step.
		r.accountPeriod(res, 0, ex.end, 0, false, ex.end >= d.Breakeven, predictor.SourceNone)
		return
	}

	for _, t := range ps.svc {
		res.Energy.Busy += t * d.BusyPower
	}

	// Leading idle before the first access: the disk spins unmanaged.
	first := ex.accesses[0].Time
	r.accountPeriod(res, 0, first, 0, false, first >= d.Breakeven, predictor.SourceNone)

	// One predictor and standing decision per slot; a nil predictor marks
	// a process yet to access the disk this execution.
	n := len(ex.procs)
	rs.preds = slices.Grow(rs.preds[:0], n)[:n]
	rs.fa = slices.Grow(rs.fa[:0], n)[:n]
	rs.dec = slices.Grow(rs.dec[:0], n)[:n]
	clear(rs.preds)
	clear(rs.fa)
	rs.decided = rs.decided[:0]
}

// step processes the machine's next access: it feeds the access to its
// process's predictor, merges the standing decisions through the global
// combiner over the idle period the access opens, classifies the period
// and charges its energy. The current execution must have an access
// left to step.
func (m *machine) step() {
	r, rs, res, ex, f, pol, d := m.r, m.rs, m.res, m.ex, m.f, m.pol, &m.r.cfg.Disk
	i := m.i
	m.i++
	a := ex.accesses[i]
	preds, dec := rs.preds, rs.dec

	slot := ex.slot[i]
	pred := preds[slot]
	if pred == nil {
		pred = f.NewProcess(a.Pid)
		preds[slot] = pred
		rs.fa[slot], _ = pred.(predictor.FutureAware)
		// Insert slot at its pid's sorted position: combine walks
		// decided in pid order, which fixes its tie-break.
		decided := rs.decided
		j := len(decided)
		decided = append(decided, 0)
		for j > 0 && ex.procs[decided[j-1]].pid > a.Pid {
			decided[j] = decided[j-1]
			j--
		}
		decided[j] = slot
		rs.decided = decided
	}
	nextLocal := ex.nextLocal[i]
	if fa := rs.fa[slot]; fa != nil {
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
	dec[slot] = st

	// Global period from this access to the next one in the merged
	// stream (or the tail of the execution); prepare guarantees T1 ≥ T0.
	T0 := a.Time
	T1 := ex.end
	terminal := i+1 >= len(ex.accesses)
	if !terminal {
		T1 = ex.accesses[i+1].Time
	}
	gap := T1 - T0
	long := gap >= d.Breakeven

	var s trace.Time
	var src predictor.Source
	var found bool
	if pol.GlobalOracle {
		if long {
			s, src, found = T0, predictor.SourcePrimary, true
		}
	} else {
		for m.exit < len(ex.exits) && ex.exits[m.exit].Time <= T0 {
			m.exit++
		}
		if !combineSkips(ex, slot, st.ready, m.exit, T0, T1) {
			s, src, found = combine(ex, dec, rs.decided, m.exit, T0, T1)
		}
	}
	if m.tr != nil {
		s, src, found = m.tr.decide(r, ex, a, m.serviceEnd[i], T0, T1, s, src, found, terminal, long)
	}

	if !terminal {
		globalDecision := predictor.Decision{Shutdown: found, Delay: s - T0, Source: src}
		classify(&res.Global, gap, globalDecision, d.Breakeven)
	}
	switch {
	case found && s < T1:
		r.accountPeriod(res, m.serviceEnd[i], T1, s, found, long, src)
	case long:
		// The disk spins through the period: periodCost's no-shutdown
		// price, read from the pass's idle table.
		res.Energy.IdleLong += m.idle[i] * d.IdlePower
	default:
		res.Energy.IdleShort += m.idle[i] * d.IdlePower
	}
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
