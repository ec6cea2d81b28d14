// Package sim is the trace-driven multiprocess simulator: it replays
// application traces through the file cache, drives per-process shutdown
// predictors, combines their decisions with the global shutdown predictor
// of the paper's Figure 5, classifies every idle period, and integrates
// disk energy.
package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"pcapsim/internal/disk"
	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// infTime marks "no shutdown scheduled".
const infTime = trace.Time(math.MaxInt64)

// Config parameterizes the simulator.
type Config struct {
	// Disk is the drive power model.
	Disk disk.Params
	// Cache is the file cache configuration.
	Cache fscache.Config
	// ServiceBase is the fixed per-access disk service time.
	ServiceBase trace.Time
	// ServiceBandwidth is the transfer rate in bytes per second used for
	// the size-dependent part of the service time.
	ServiceBandwidth float64
	// LowPowerWaitWindow enables the paper's future-work extension: when
	// a primary prediction is pending, the disk drops into the drive's
	// intermediate low-power idle state (Disk.LowPowerIdlePower) for the
	// wait-window instead of idling at full power. It requires a drive
	// with a low-power idle state.
	LowPowerWaitWindow bool
}

// DefaultConfig returns the paper's setup: the Fujitsu MHF 2043AT drive,
// the 256 KB / 30 s file cache, and a 2 ms + 20 MB/s disk service model.
func DefaultConfig() Config {
	return Config{
		Disk:             disk.FujitsuMHF2043AT(),
		Cache:            fscache.DefaultConfig(),
		ServiceBase:      2 * trace.Millisecond,
		ServiceBandwidth: 20e6,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.ServiceBase < 0 {
		return fmt.Errorf("sim: service base must be non-negative, got %v", c.ServiceBase)
	}
	if c.ServiceBandwidth <= 0 {
		return fmt.Errorf("sim: service bandwidth must be positive, got %g", c.ServiceBandwidth)
	}
	if c.LowPowerWaitWindow && c.Disk.LowPowerIdlePower <= 0 {
		return fmt.Errorf("sim: LowPowerWaitWindow requires a drive with a low-power idle state")
	}
	return nil
}

// AppResult aggregates one policy's run over all executions of one
// application.
type AppResult struct {
	// App and Policy identify the run.
	App    string
	Policy string
	// Executions is the number of executions simulated.
	Executions int
	// TotalIOs is the pre-cache I/O event count (Table 1's "Total I/Os").
	TotalIOs int
	// DiskAccesses is the post-cache disk access count.
	DiskAccesses int
	// Local accumulates per-process idle-period outcomes (Figure 6).
	Local Counts
	// Global accumulates merged-stream outcomes under the global
	// shutdown predictor (Figure 7).
	Global Counts
	// Energy is the disk energy under this policy's global decisions
	// (Figure 8).
	Energy disk.EnergyBreakdown
	// Cycles is the number of shutdowns actually performed.
	Cycles int
	// Wakeups counts accesses that found the disk spun down and had to
	// wait for a spin-up; WaitTime is the total user-visible latency so
	// incurred (the paper's "irritate the user who has to wait for the
	// disk to spin up").
	Wakeups  int
	WaitTime trace.Time
	// SimTime is the total simulated time across executions.
	SimTime trace.Time
	// StateEntries is the predictor's learned-state size after the final
	// execution (Table 3), or -1 if the policy has no learned state.
	StateEntries int
	// Cache aggregates file cache activity.
	Cache fscache.Stats
}

// Runner executes policies over application traces.
//
// A Runner is safe for concurrent runs: cfg is immutable after
// construction, and all per-run state lives in pooled scratch that one
// pass or machine owns at a time: the file cache and prepared execution
// in a prepState, the predictors in a runState (see prepState). Traces,
// and the executions a retaining runner keeps (RetainPrepared), are read
// only. The experiment engine (internal/experiments.RunMatrix) relies on
// this: its per-application RunCells passes share one Runner across
// workers. Sources are single-goroutine iterators, so concurrent runs
// need distinct Sources.
type Runner struct {
	cfg Config
	// statePool recycles machines' step state (slot-indexed slices)
	// across passes; prepared-execution buffers come from the shared
	// prepPool.
	statePool sync.Pool
	// kept, if set by RetainPrepared, holds the prepared executions of
	// the pinned traces the runner's passes read.
	kept *retained
}

// NewRunner returns a Runner, validating the configuration.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg}, nil
}

// MustNewRunner is NewRunner, panicking on configuration errors.
func MustNewRunner(cfg Config) *Runner {
	r, err := NewRunner(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// RunApp simulates every execution trace of one application under the
// given policy and returns the aggregated result. It is a thin wrapper
// over RunSource with the traces adapted to a Source.
func (r *Runner) RunApp(traces []*trace.Trace, pol Policy) (*AppResult, error) {
	return r.RunSource(trace.NewSliceSource(traces...), pol)
}

// RunSource simulates every execution yielded by src under the given
// policy and returns the aggregated result. Executions are consumed one
// at a time, borrowed from the source: peak memory is one execution's
// events, independent of how many executions the source yields. The source must yield at least
// one execution; all executions are expected to belong to one
// application (the result is labelled with the first one's name).
//
// RunSource over a source yielding the same executions as a []*trace.Trace
// produces a result identical to RunApp over that slice — the simulation
// per execution, including floating-point accumulation order, is shared
// code.
func (r *Runner) RunSource(src trace.Source, pol Policy) (*AppResult, error) {
	return r.RunSourceTraced(src, pol, TraceOptions{})
}

// Cell is one simulation of a RunCells pass: a policy on a runner,
// optionally traced (a zero Trace is a plain run).
type Cell struct {
	Runner *Runner
	Policy Policy
	Trace  TraceOptions
}

// PassConfig is the part of a runner's configuration that every cell of
// a RunCells pass shares: the file cache that prepares each execution
// and the disk service model that schedules its accesses.
type PassConfig struct {
	Cache            fscache.Config
	ServiceBase      trace.Time
	ServiceBandwidth float64
}

func (c *Config) pass() PassConfig {
	return PassConfig{Cache: c.Cache, ServiceBase: c.ServiceBase, ServiceBandwidth: c.ServiceBandwidth}
}

// PassMismatchError rejects a RunCells cell whose runner's PassConfig
// differs from the first cell's, which prepares and schedules the pass.
type PassMismatchError struct {
	Cell      int
	Want, Got PassConfig
}

func (e *PassMismatchError) Error() string {
	return fmt.Sprintf("sim: cell %d: pass config %+v differs from the pass's %+v", e.Cell, e.Got, e.Want)
}

// RunCells simulates every cell over the executions of src in one pass,
// returning results and errors index-aligned with cells. It prepares each
// execution once and steps every cell's machine through it in turn; cells
// share nothing else, so each result is identical to a one-cell run's.
// A cell fails alone only when it is set up, by an invalid policy or a
// *PassMismatchError; once the pass runs, a source or prepare error
// fails every running cell with the same wrapped error.
func RunCells(src trace.Source, cells []Cell) ([]*AppResult, []error) {
	res := make([]*AppResult, len(cells))
	errs := make([]error, len(cells))
	ms := make([]*machine, len(cells)) // nil for a rejected cell
	for i, c := range cells {
		if want, got := cells[0].Runner.cfg.pass(), c.Runner.cfg.pass(); got != want {
			errs[i] = &PassMismatchError{Cell: i, Want: want, Got: got}
			continue
		}
		var tr *tracedRun
		if c.Trace.Sink != nil || c.Trace.Flip != nil {
			tr = &tracedRun{opt: c.Trace}
		}
		ms[i], errs[i] = c.Runner.newMachine(src, c.Policy, tr)
	}
	drive(src, ms)
	for i, m := range ms {
		if m != nil {
			res[i], errs[i] = m.finish()
		}
	}
	return res, errs
}

// drive pulls each execution of src once, prepares it and its service
// schedule under the first live machine's PassConfig and steps every
// live (non-nil) machine through it. A pinned trace (trace.Pinned) read
// through a retaining runner reuses that runner's retained execution;
// any other execution is prepared in one pooled prepState, which holds
// the schedule either way. The caller's finish surfaces source errors.
func drive(src trace.Source, ms []*machine) {
	live := slices.DeleteFunc(slices.Clone(ms), func(m *machine) bool { return m == nil })
	if len(live) == 0 {
		return
	}
	cfg, kept := &live[0].r.cfg, live[0].r.kept
	ps := getPrep()
	defer prepPool.Put(ps)
	for {
		app, exec, ok := src.NextExec()
		if !ok {
			return
		}
		for _, m := range live {
			m.advance(app)
		}
		var ex *execution
		var err error
		if tr := trace.PinnedTrace(src); kept != nil && tr != nil {
			ex, err = kept.get(tr, cfg.Cache)
		} else {
			ex, err = ps.prepare(&trace.Trace{App: app, Execution: exec, Events: src.ExecEvents()}, cfg.Cache)
		}
		if err != nil {
			for _, m := range live {
				m.err = err
			}
			return
		}
		ps.schedule(ex, cfg)
		for _, m := range live {
			m.openExecution(ex, ps)
			m.run(ex, ps)
		}
	}
}

// decisionState is a process's standing decision: the absolute time at
// which it is ready for the disk to shut down (infTime = blocks shutdown).
type decisionState struct {
	ready  trace.Time
	source predictor.Source
}

// combine implements the Global Shutdown Predictor: the disk shuts down at
// the earliest instant in [T0, T1) at which every live process that has
// performed I/O is ready. Processes exiting during the window stop
// constraining it from their exit on; once none that performed I/O is
// live, their last standing decisions govern instead, so an always-on
// process still blocks and a timer still runs out (DESIGN.md §10). dec is
// indexed by slot and decided lists the slots with a standing decision
// in pid order; eidx is the index of the first exit after T0. The
// returned source belongs to the process that made the last
// (latest-ready) decision, the highest pid among those ready at the same
// instant.
func combine(ex *execution, dec []decisionState, decided []int32, eidx int, T0, T1 trace.Time) (trace.Time, predictor.Source, bool) {
	// Exit events strictly inside the window split it into segments with
	// a fixed constraint set each.
	segStart := T0
	for {
		segEnd := T1
		if eidx < len(ex.exits) && ex.exits[eidx].Time < T1 {
			segEnd = ex.exits[eidx].Time
		}
		ready, src, blocked, live := standing(ex, dec, decided, segStart, false)
		if !live {
			ready, src, blocked, _ = standing(ex, dec, decided, segStart, true)
		}
		if !blocked && ready < segEnd {
			return max(ready, segStart), src, true
		}
		if segEnd == T1 {
			return 0, predictor.SourceNone, false
		}
		segStart = segEnd
		eidx++
	}
}

// standing folds the standing decisions of decided's processes that are
// live at t, or of all of them when exited is set: the latest ready time
// and its source, and whether any process blocks. some reports whether a
// process was folded.
func standing(ex *execution, dec []decisionState, decided []int32, t trace.Time, exited bool) (ready trace.Time, src predictor.Source, blocked, some bool) {
	ready, src = trace.Time(math.MinInt64), predictor.SourceBackup
	for _, slot := range decided {
		if pi := &ex.procs[slot]; !exited && pi.hasExit && pi.exit <= t {
			continue
		}
		some = true
		st := dec[slot]
		if st.ready == infTime {
			blocked = true
			continue
		}
		if st.ready >= ready {
			ready = st.ready
			src = st.source
		}
	}
	return ready, src, blocked, some
}

// combineSkips reports that combine cannot shut down in [T0, T1) once
// the process at slot, which accessed the disk at T0, stands ready at
// ready; eidx is the index of the first exit after T0. It holds when no
// exit lies in (T0, T1), so the window is one segment; the process is
// live in it; and it is ready no earlier than T1. The latest ready time
// of the segment's live processes is then at or past its end, or one of
// them blocks (DESIGN.md §10).
func combineSkips(ex *execution, slot int32, ready trace.Time, eidx int, T0, T1 trace.Time) bool {
	pi := &ex.procs[slot]
	return ready >= T1 && !(pi.hasExit && pi.exit <= T0) &&
		(eidx == len(ex.exits) || ex.exits[eidx].Time >= T1)
}

// classify scores one idle period of length gap under a decision, per the
// taxonomy in DESIGN.md.
func classify(c *Counts, gap trace.Time, d predictor.Decision, breakeven trace.Time) {
	long := gap >= breakeven
	if long {
		c.LongPeriods++
	} else {
		c.ShortPeriods++
	}
	if !d.Shutdown || d.Delay >= gap {
		// No shutdown happens (a timer or wait-window outlasting the
		// period is cancelled by the next access).
		if long {
			c.NotPredicted++
		}
		return
	}
	off := gap - d.Delay
	primary := d.Source != predictor.SourceBackup
	if off >= breakeven {
		if primary {
			c.HitPrimary++
		} else {
			c.HitBackup++
		}
	} else {
		if primary {
			c.MissPrimary++
		} else {
			c.MissBackup++
		}
	}
}

// periodCost prices one global period under a decision: the disk idles
// from svcEnd until the shutdown point s (if found), then stands by until
// T1. idleJ is that non-busy energy without the power cycle; cycled
// reports a shutdown, which costs the drive's fixed cycle energy and
// makes the access ending the period wait for the spin-up. It is the one
// period cost model: accountPeriod charges it and decision tracing prices
// the decision's alternatives with it.
func (r *Runner) periodCost(svcEnd, T1, s trace.Time, shutdown bool, src predictor.Source) (idleJ float64, wait trace.Time, cycled bool) {
	d := &r.cfg.Disk
	idleStart := svcEnd
	if idleStart > T1 {
		return 0, 0, false // queued service spills past the next arrival: no idle at all
	}
	if !shutdown || s >= T1 {
		return (T1 - idleStart).Seconds() * d.IdlePower, 0, false
	}
	// With the multi-state extension, a pending primary prediction parks
	// the disk in the low-power idle state for its wait-window.
	preShutdownPower := d.IdlePower
	if r.cfg.LowPowerWaitWindow && src == predictor.SourcePrimary && d.LowPowerIdlePower > 0 {
		preShutdownPower = d.LowPowerIdlePower
	}
	if s < idleStart {
		s = idleStart
	}
	idleJ = (s-idleStart).Seconds()*preShutdownPower + (T1-s).Seconds()*d.StandbyPower
	// The access ending this period finds the disk off: it waits for the
	// spin-up, plus the tail of the shutdown transition if it arrived
	// mid-transition.
	wait = d.SpinUpTime
	if pending := s + d.ShutdownTime - T1; pending > 0 {
		wait += pending
	}
	return idleJ, wait, true
}

// accountPeriod charges one global period's periodCost to res: the idle
// energy to the long or short bucket, and a performed shutdown's cycle
// energy, cycle, wakeup and wait.
func (r *Runner) accountPeriod(res *AppResult, svcEnd, T1, s trace.Time, shutdown, long bool, src predictor.Source) {
	idleJ, wait, cycled := r.periodCost(svcEnd, T1, s, shutdown, src)
	if long {
		res.Energy.IdleLong += idleJ
	} else {
		res.Energy.IdleShort += idleJ
	}
	if cycled {
		res.Energy.PowerCycle += r.cfg.Disk.CycleEnergy()
		res.Cycles++
		res.Wakeups++
		res.WaitTime += wait
	}
}
