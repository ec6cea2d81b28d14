package sim

import (
	"fmt"
	"math"
	"testing"

	"pcapsim/internal/core"
	"pcapsim/internal/disk"
	"pcapsim/internal/ltree"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// The period oracle re-derives a policy's energy from a prepared
// execution (its accesses, exits and end) and the Config alone, in closed
// form: its own service times, FIFO service ends and global periods, and
// its own shutdown rule per period. It shares no code with the simulator's
// combiner, period pricing or predictors, so agreeing with them to the
// last bit checks both.

// oraclePolicy is a policy the oracle prices in closed form: Base never
// shuts down, Ideal shuts down at the start of every long period, and
// TP(timeout) shuts down once every live process's timer has run out.
type oraclePolicy struct {
	name    string
	ideal   bool
	timeout trace.Time // TP's timer; 0 for Base and Ideal
}

// oracleResult is the oracle's account of one policy over a workload.
type oracleResult struct {
	energy disk.EnergyBreakdown
	cycles int // every cycle wakes one access, so cycles = wakeups
	wait   trace.Time
}

// oracleProc is one process of an execution, as the oracle tracks it.
type oracleProc struct {
	pid     trace.PID
	last    trace.Time // latest disk access so far, or -1 before the first
	exit    trace.Time // last exit in the execution
	hasExit bool
}

// tpShutdown returns when TP(timeout) shuts the disk down in the period
// [T0, T1): at the latest last access + timeout over the processes that
// have accessed the disk and not yet exited. Exits inside the period
// split it, each exit dropping its process from the constraint set; once
// every such process has exited, the disk shuts down at that exit.
func tpShutdown(procs []oracleProc, exits []trace.Event, timeout, T0, T1 trace.Time) (trace.Time, bool) {
	var bounds []trace.Time
	for _, x := range exits {
		if x.Time > T0 && x.Time < T1 {
			bounds = append(bounds, x.Time)
		}
	}
	start := T0
	for _, end := range append(bounds, T1) {
		ready, live := trace.Time(math.MinInt64), false
		for _, p := range procs {
			if p.last < 0 || p.hasExit && p.exit <= start {
				continue
			}
			live = true
			ready = max(ready, p.last+timeout)
		}
		if !live {
			return start, true
		}
		if ready < end {
			return max(ready, start), true
		}
		start = end
	}
	return 0, false
}

// oracleExecution adds one execution's energy, cycles and wait under pol
// to out, and checks that the disk's residency — leading idle, busy, idle
// and standby — covers exactly max(end, last service end).
func oracleExecution(t *testing.T, cfg Config, ex *execution, pol oraclePolicy, out *oracleResult) {
	t.Helper()
	d := cfg.Disk
	charge := func(long bool, j float64) {
		if long {
			out.energy.IdleLong += j
		} else {
			out.energy.IdleShort += j
		}
	}
	if len(ex.accesses) == 0 {
		charge(ex.end >= d.Breakeven, ex.end.Seconds()*d.IdlePower)
		return
	}

	var procs []oracleProc
	procOf := func(pid trace.PID) *oracleProc {
		for i := range procs {
			if procs[i].pid == pid {
				return &procs[i]
			}
		}
		procs = append(procs, oracleProc{pid: pid, last: -1})
		return &procs[len(procs)-1]
	}
	for _, x := range ex.exits {
		p := procOf(x.Pid)
		p.exit, p.hasExit = x.Time, true
	}

	ends := make([]trace.Time, len(ex.accesses))
	var busy, done trace.Time
	for i, a := range ex.accesses {
		svc := cfg.ServiceBase + trace.FromSeconds(float64(a.Size)/cfg.ServiceBandwidth)
		done = max(done, a.Time) + svc
		ends[i] = done
		busy += svc
		out.energy.Busy += svc.Seconds() * d.BusyPower
	}
	lead := ex.accesses[0].Time
	charge(lead >= d.Breakeven, lead.Seconds()*d.IdlePower)

	var idle, standby trace.Time
	for i, a := range ex.accesses {
		procOf(a.Pid).last = a.Time
		T0, T1 := a.Time, ex.end
		if i+1 < len(ex.accesses) {
			T1 = ex.accesses[i+1].Time
		}
		T1 = max(T1, T0)
		long := T1-T0 >= d.Breakeven

		var s trace.Time
		var off bool
		switch {
		case pol.ideal:
			s, off = T0, long
		case pol.timeout > 0:
			s, off = tpShutdown(procs, ex.exits, pol.timeout, T0, T1)
		}

		// The disk idles from the service end until the shutdown point,
		// then stands by until T1; service running past T1 leaves no idle
		// time and no room to shut down.
		e := ends[i]
		if e > T1 {
			continue
		}
		var pIdle, pStandby trace.Time
		if off && s < T1 {
			s = max(s, e)
			pIdle, pStandby = s-e, T1-s
			out.energy.PowerCycle += d.ShutdownEnergy + d.SpinUpEnergy
			out.cycles++
			out.wait += d.SpinUpTime + max(0, s+d.ShutdownTime-T1)
		} else {
			pIdle = T1 - e
		}
		idle += pIdle
		standby += pStandby
		charge(long, pIdle.Seconds()*d.IdlePower+pStandby.Seconds()*d.StandbyPower)
	}
	if got, want := lead+busy+idle+standby, max(ex.end, done); got != want {
		t.Errorf("%s/%d under %s: residency %v (lead %v + busy %v + idle %v + standby %v), want max(end, last service end) = %v",
			ex.app, ex.index, pol.name, got, lead, busy, idle, standby, want)
	}
}

// relErr is |a-b| relative to the larger magnitude (0 when both are 0).
func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / max(math.Abs(a), math.Abs(b))
}

// prepareAll prepares every trace under the default cache, as the
// simulator does, and keeps a copy of each execution for the oracle.
func prepareAll(t *testing.T, traces []*trace.Trace) []*execution {
	t.Helper()
	var exs []*execution
	ps := new(prepState)
	for _, tr := range traces {
		ex, err := ps.prepare(tr, DefaultConfig().Cache)
		if err != nil {
			t.Fatal(err)
		}
		exs = append(exs, ex.clone())
	}
	return exs
}

// checkOracle prices pol over exs with the oracle and checks the
// simulator's result got against it: every energy bucket to a relative
// 1e-9, cycles, wakeups and wait time exactly. It returns the worst
// bucket's relative error.
func checkOracle(t *testing.T, cfg Config, exs []*execution, pol oraclePolicy, got *AppResult, where string) float64 {
	t.Helper()
	var want oracleResult
	for _, ex := range exs {
		oracleExecution(t, cfg, ex, pol, &want)
	}
	worst := 0.0
	for _, b := range []struct {
		name      string
		got, want float64
	}{
		{"busy", got.Energy.Busy, want.energy.Busy},
		{"idle-short", got.Energy.IdleShort, want.energy.IdleShort},
		{"idle-long", got.Energy.IdleLong, want.energy.IdleLong},
		{"power-cycle", got.Energy.PowerCycle, want.energy.PowerCycle},
	} {
		e := relErr(b.got, b.want)
		worst = max(worst, e)
		if e > 1e-9 {
			t.Errorf("%s: %s energy %.9g J, oracle %.9g J (relative error %.2g)", where, b.name, b.got, b.want, e)
		}
	}
	if got.Cycles != want.cycles || got.Wakeups != want.cycles || got.WaitTime != want.wait {
		t.Errorf("%s: cycles %d, wakeups %d, wait %v; oracle %d cycles and wakeups, wait %v",
			where, got.Cycles, got.Wakeups, got.WaitTime, want.cycles, want.wait)
	}
	return worst
}

// TestEnginesAgree checks the simulator's energy accounting against the
// closed-form oracle on one real workload, through RunApp, under Base,
// TP and Ideal: both engines must agree on every energy bucket, the
// cycle count and the wait time.
func TestEnginesAgree(t *testing.T) {
	r := mustRunner(t)
	app, _ := workload.ByName("xemacs")
	traces := app.Traces(31)[:10]
	exs := prepareAll(t, traces)
	for _, pol := range []struct {
		oracle oraclePolicy
		sim    Policy
	}{
		{oraclePolicy{name: "Base"}, basePolicy()},
		{oraclePolicy{name: "TP", timeout: 10 * trace.Second}, tpPolicy(10 * trace.Second)},
		{oraclePolicy{name: "Ideal", ideal: true}, idealPolicy(r.Config().Disk.Breakeven)},
	} {
		got, err := r.RunApp(traces, pol.sim)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, r.Config(), exs, pol.oracle, got, pol.oracle.name)
	}
}

// oracleGrid returns the workload seeds and devices of the oracle grid:
// three seeds by the whole device catalog. -short keeps the suite's
// default seed only, and the race detector only the paper's drive too.
func oracleGrid() ([]uint64, []disk.Params) {
	seeds, devices := []uint64{ledgerSeed, 1, 7}, disk.Catalog()
	if testing.Short() {
		seeds = seeds[:1]
	}
	if raceDetectorEnabled {
		devices = devices[:1]
	}
	return seeds, devices
}

// TestOracleMatchesSimulator runs one RunCells pass per (seed, app,
// device) over Base, Ideal, PCAP, LT and TP at 10 s, at breakeven and at
// 10⁶ s, and checks:
//   - the oracle's energy per bucket matches the simulator's for every
//     policy it prices (to a relative 1e-9), and its cycles, wakeups and
//     wait time exactly (so Base never cycles); with the residency
//     identity this makes energy conservation exact;
//   - Ideal spends no more energy than any other policy, never
//     mispredicts and never misses an opportunity;
//   - TP with a timer longer than any period is Base to the last bit;
//   - ski rental: TP(breakeven)'s non-busy energy is at most twice
//     Ideal's;
//   - every policy sees the same trace-level counts and long periods.
func TestOracleMatchesSimulator(t *testing.T) {
	seeds, devices := oracleGrid()
	for _, seed := range seeds {
		for _, app := range workload.Apps() {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, app.Name), func(t *testing.T) {
				t.Parallel()
				checkOracleGrid(t, seed, app, devices)
			})
		}
	}
}

// checkOracleGrid runs one app's workload at one seed on every device.
func checkOracleGrid(t *testing.T, seed uint64, app *workload.App, devices []disk.Params) {
	traces := app.Traces(seed)
	exs := prepareAll(t, traces)

	worstSki, worstErr := 0.0, 0.0
	for _, d := range devices {
		cfg := DefaultConfig()
		cfg.Disk = d
		r := MustNewRunner(cfg)
		wait := min(trace.Second, d.Breakeven/2)
		pcapCfg := core.DefaultConfig(core.VariantBase)
		pcapCfg.Breakeven, pcapCfg.WaitWindow = d.Breakeven, wait
		ltCfg := ltree.DefaultConfig()
		ltCfg.Breakeven, ltCfg.WaitWindow = d.Breakeven, wait

		const (
			iBase = iota
			iIdeal
			iTP10
			iTPBreakeven
			iTPNever
			iPCAP
			iLT
		)
		priced := []oraclePolicy{
			iBase:        {name: "Base"},
			iIdeal:       {name: "Ideal", ideal: true},
			iTP10:        {name: "TP", timeout: 10 * trace.Second},
			iTPBreakeven: {name: "TPbe", timeout: d.Breakeven},
			iTPNever:     {name: "TP1e6", timeout: 1e6 * trace.Second},
		}
		pols := []Policy{
			iBase:        basePolicy(),
			iIdeal:       idealPolicy(d.Breakeven),
			iTP10:        tpPolicy(10 * trace.Second),
			iTPBreakeven: tpPolicy(d.Breakeven),
			iTPNever:     tpPolicy(1e6 * trace.Second),
			iPCAP: {Name: "PCAP", Reuse: true,
				NewFactory: func() predictor.Factory { return core.MustNew(pcapCfg) }},
			iLT: {Name: "LT", Reuse: true,
				NewFactory: func() predictor.Factory { return ltree.MustNew(ltCfg) }},
		}
		cells := make([]Cell, len(pols))
		for i, p := range pols {
			cells[i] = Cell{Runner: r, Policy: p}
		}
		res, errs := RunCells(trace.NewSliceSource(traces...), cells)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s on %s: %v", pols[i].Name, d.Name, err)
			}
		}

		for i, pol := range priced {
			worstErr = max(worstErr, checkOracle(t, cfg, exs, pol, res[i], fmt.Sprintf("%s on %s", pol.name, d.Name)))
		}

		ideal := res[iIdeal]
		for _, o := range res {
			if o.Energy.Total() < ideal.Energy.Total() {
				t.Errorf("%s on %s spends %.3f J, below Ideal's %.3f J", o.Policy, d.Name, o.Energy.Total(), ideal.Energy.Total())
			}
			if o.TotalIOs != ideal.TotalIOs || o.DiskAccesses != ideal.DiskAccesses || o.Global.LongPeriods != ideal.Global.LongPeriods {
				t.Errorf("%s on %s: trace-level counts differ from Ideal's", o.Policy, d.Name)
			}
		}
		if ideal.Global.Misses() != 0 || ideal.Global.NotPredicted != 0 {
			t.Errorf("Ideal on %s mispredicts or misses opportunities: %+v", d.Name, ideal.Global)
		}
		if never := res[iTPNever]; never.Cycles != 0 || fmt.Sprintf("%+v", never.Energy) != fmt.Sprintf("%+v", res[iBase].Energy) {
			t.Errorf("TP(10⁶ s) on %s: %d cycles, energy %+v; want Base's %+v", d.Name, never.Cycles, never.Energy, res[iBase].Energy)
		}
		tpJ := res[iTPBreakeven].Energy.Total() - res[iTPBreakeven].Energy.Busy
		idealJ := ideal.Energy.Total() - ideal.Energy.Busy
		if tpJ > 2*idealJ {
			t.Errorf("TP(breakeven) on %s: non-busy energy %.3f J exceeds twice Ideal's %.3f J", d.Name, tpJ, idealJ)
		}
		worstSki = max(worstSki, tpJ/idealJ)
	}
	t.Logf("worst bucket relative error %.2g; worst TP(breakeven)/Ideal non-busy energy ratio %.3f", worstErr, worstSki)
}
