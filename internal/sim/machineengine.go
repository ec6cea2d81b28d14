package sim

import (
	"pcapsim/internal/disk"
	"pcapsim/internal/trace"
)

// This file provides a second, independent energy engine built on the
// explicit disk state machine (disk.Machine) instead of the runner's
// analytic per-period accounting. The two engines make slightly different
// modelling choices — the machine delays I/O service until a pending
// spin-up completes and charges standby power through transitions, while
// the analytic engine keeps trace timestamps fixed — so their totals
// differ by a small, bounded amount per power cycle. Comparing them
// cross-validates both implementations (see TestEnginesAgree) and
// quantifies the cost of the fixed-timestamp simplification.

// MachineEnergy replays the given execution traces through disk.Machine
// under the policy's *recorded* shutdown decisions and returns the total
// energy breakdown. It runs the regular simulation first (to obtain the
// shutdown schedule via the PeriodHook) and then drives the state machine
// with that schedule.
func (r *Runner) MachineEnergy(traces []*trace.Trace, pol Policy) (disk.EnergyBreakdown, error) {
	type shutdownCmd struct {
		exec int
		at   trace.Time
	}
	var schedule []shutdownCmd
	// Capture the shutdown schedule by driving the extracted machine
	// layer directly with a capture hook — the same prepare/step path as
	// RunApp, without mutating r (whose PeriodHook may be owned by a
	// concurrent caller) and without hand-assembling a scratch Runner.
	src := trace.NewSliceSource(traces...)
	m, err := r.newMachine(src, pol, nil)
	if err != nil {
		return disk.EnergyBreakdown{}, err
	}
	m.hook = func(p PeriodRecord) {
		if p.Shutdown {
			schedule = append(schedule, shutdownCmd{exec: p.Execution, at: p.At})
		}
	}
	drive(src, []*machine{m})
	if _, err := m.finish(); err != nil {
		return disk.EnergyBreakdown{}, err
	}

	var total disk.EnergyBreakdown
	si := 0 // schedule cursor
	for _, tr := range traces {
		ex, err := prepare(tr, r.cfg.Cache)
		if err != nil {
			return disk.EnergyBreakdown{}, err
		}
		m, err := disk.NewMachine(r.cfg.Disk)
		if err != nil {
			return disk.EnergyBreakdown{}, err
		}
		// Interleave accesses and scheduled shutdowns in time order. The
		// machine re-times service after spin-ups, so its clock can run
		// ahead of the trace; commands are clamped to its present.
		clamp := func(t trace.Time) trace.Time {
			if now := m.Now(); t < now {
				return now
			}
			return t
		}
		for i, a := range ex.accesses {
			if _, err := m.ServeIO(clamp(a.Time), r.serviceTime(a)); err != nil {
				return disk.EnergyBreakdown{}, err
			}
			// Classify the idle period that now begins, then execute the
			// shutdowns scheduled strictly inside it (a shutdown stamped
			// at this access's own time belongs to this period — the
			// oracle shuts down at the instant the period starts).
			next := ex.end
			if i+1 < len(ex.accesses) {
				next = ex.accesses[i+1].Time
			}
			m.SetPeriodClass(next-a.Time >= r.cfg.Disk.Breakeven)
			for si < len(schedule) && schedule[si].exec == tr.Execution && schedule[si].at < next {
				if err := m.Shutdown(clamp(schedule[si].at)); err != nil {
					return disk.EnergyBreakdown{}, err
				}
				si++
			}
		}
		// Drop any leftover commands of this execution (stamped at or
		// after the final event).
		for si < len(schedule) && schedule[si].exec == tr.Execution {
			si++
		}
		end := ex.end
		if m.Now() > end {
			end = m.Now()
		}
		e, err := m.Finish(end)
		if err != nil {
			return disk.EnergyBreakdown{}, err
		}
		total.Add(e)
	}
	return total, nil
}

// EngineDivergenceBound returns the maximum per-cycle energy discrepancy
// expected between the analytic and machine engines: the machine charges
// standby power through both transitions and delays service by the
// spin-up time (idle power there), while the analytic engine does
// neither.
func EngineDivergenceBound(p disk.Params, cycles int) float64 {
	perCycle := p.StandbyPower*p.CycleTime().Seconds() +
		p.IdlePower*p.SpinUpTime.Seconds()
	if perCycle < 0 {
		return 0
	}
	return float64(cycles)*perCycle + 1e-6
}
