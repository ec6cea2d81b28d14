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
// pass's prepState, then calls openExecution and run on each machine.
// openExecution runs the execution's accounting prologue; an execution
// with no disk accesses is accounted as pure idle there and has nothing
// to run. run steps every access of the execution in one loop: the
// per-process predictor update, the global combiner decision for the
// period the access opens, its classification and its energy
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

// openExecution runs ex's accounting prologue: totals, the busy energy
// of the pass's service schedule in ps (see prepState.schedule), the
// leading unmanaged idle, and the reset of the slot-indexed predictor and
// decision working set.
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

	if len(ex.accesses) == 0 {
		// A silent execution: the disk just idles; there is nothing to
		// run.
		r.accountPeriod(res, 0, ex.end, 0, false, ex.end >= d.Breakeven, predictor.SourceNone)
		return
	}

	busy := res.Energy.Busy
	for _, t := range ps.svc {
		busy += t * d.BusyPower
	}
	res.Energy.Busy = busy

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

// run steps every access of ex, opened by openExecution, in one loop:
// each access feeds its process's predictor, the global combiner decides
// the idle period it opens, and the period is classified and charged.
// The loop keeps what it only reads, its counts and its idle sums in
// locals. accountPeriod adds to res's idle sums, so they are written back
// before it and reloaded after it: each float is summed in the order a
// step per access through res would sum it.
func (m *machine) run(ex *execution, ps *prepState) {
	accesses, n, end, exits, procs := ex.accesses, len(ex.accesses), ex.end, ex.exits, ex.procs
	slots, localGap, serviceEnd, idle := ex.slot[:n], ex.localGap[:n], ps.serviceEnd[:n], ps.idle[:n]
	r, rs, res, f, tr, globalOracle := m.r, m.rs, m.res, m.f, m.tr, m.pol.GlobalOracle
	breakeven, idlePower := r.cfg.Disk.Breakeven, r.cfg.Disk.IdlePower
	preds, fa, dec, decided := rs.preds, rs.fa, rs.dec, rs.decided
	local, global := res.Local, res.Global
	idleLong, idleShort := res.Energy.IdleLong, res.Energy.IdleShort
	exit := 0 // index of the first exit after the period's start
	for i := range accesses {
		a := &accesses[i]
		slot := slots[i]
		pred := preds[slot]
		if pred == nil {
			pred = f.NewProcess(a.Pid)
			preds[slot] = pred
			fa[slot], _ = pred.(predictor.FutureAware)
			// Insert slot at its pid's sorted position: combine walks
			// decided in pid order, which fixes its tie-break.
			j := len(decided)
			decided = append(decided, 0)
			for j > 0 && procs[decided[j-1]].pid > a.Pid {
				decided[j] = decided[j-1]
				j--
			}
			decided[j] = slot
		}
		nextGap := localGap[i]
		if fa := fa[slot]; fa != nil {
			if nextGap >= 0 {
				fa.SetNextGap(nextGap, true)
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

		// Local (per-process) classification of the period that
		// follows. The kernel flush daemon is not one of the
		// application's processes, so it stays out of the per-process
		// statistics (it still feeds the global combiner below).
		if nextGap >= 0 && a.Pid != fscache.KernelFlushPID {
			classify(&local, nextGap, decision, breakeven)
		}

		// Update the standing decision for the global combiner.
		st := decisionState{ready: infTime, source: decision.Source}
		if decision.Shutdown {
			st.ready = a.Time + decision.Delay
		}
		dec[slot] = st

		// Global period from this access to the next one in the merged
		// stream (or the tail of the execution); prepare guarantees
		// T1 ≥ T0.
		T0 := a.Time
		T1 := end
		terminal := i+1 >= n
		if !terminal {
			T1 = accesses[i+1].Time
		}
		gap := T1 - T0
		long := gap >= breakeven

		var s trace.Time
		var src predictor.Source
		var found bool
		if globalOracle {
			if long {
				s, src, found = T0, predictor.SourcePrimary, true
			}
		} else {
			for exit < len(exits) && exits[exit].Time <= T0 {
				exit++
			}
			if !combineSkips(ex, slot, st.ready, exit, T0, T1) {
				s, src, found = combine(ex, dec, decided, exit, T0, T1)
			}
		}
		if tr != nil {
			s, src, found = tr.decide(r, ex, *a, serviceEnd[i], T0, T1, s, src, found, terminal, long)
		}

		if !terminal {
			globalDecision := predictor.Decision{Shutdown: found, Delay: s - T0, Source: src}
			classify(&global, gap, globalDecision, breakeven)
		}
		switch {
		case found && s < T1:
			res.Energy.IdleLong, res.Energy.IdleShort = idleLong, idleShort
			r.accountPeriod(res, serviceEnd[i], T1, s, found, long, src)
			idleLong, idleShort = res.Energy.IdleLong, res.Energy.IdleShort
		case long:
			// The disk spins through the period: periodCost's
			// no-shutdown price, read from the pass's idle table.
			idleLong += idle[i] * idlePower
		default:
			idleShort += idle[i] * idlePower
		}
	}
	res.Local, res.Global = local, global
	res.Energy.IdleLong, res.Energy.IdleShort = idleLong, idleShort
	rs.decided = decided
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
	}
}
