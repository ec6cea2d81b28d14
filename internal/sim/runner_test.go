package sim

import (
	"math"
	"testing"

	"pcapsim/internal/core"
	"pcapsim/internal/disk"
	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// fastCfg is the default configuration (kept as a helper so tests read
// clearly).
func fastCfg() Config { return DefaultConfig() }

func mustRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// handTrace builds a minimal single-process trace with accesses at the
// given times (seconds); every access reads a fresh block so the cache
// never absorbs them.
func handTrace(times ...float64) *trace.Trace {
	tr := &trace.Trace{App: "hand"}
	for i, sec := range times {
		tr.Events = append(tr.Events, trace.Event{
			Time: trace.FromSeconds(sec), Pid: 1, Kind: trace.KindIO,
			Access: trace.AccessRead, PC: 0x1000, FD: 3,
			Block: int64(i * 1000), Size: 4096,
		})
	}
	tr.Events = append(tr.Events, trace.Event{
		Time: trace.FromSeconds(times[len(times)-1] + 0.1), Pid: 1, Kind: trace.KindExit,
	})
	return tr
}

func tpPolicy(timeout trace.Time) Policy {
	return Policy{
		Name:       "TP",
		NewFactory: func() predictor.Factory { return predictor.NewTimeout(timeout) },
	}
}

func basePolicy() Policy {
	return Policy{Name: "Base", NewFactory: func() predictor.Factory { return predictor.AlwaysOn{} }}
}

func idealPolicy(breakeven trace.Time) Policy {
	return Policy{
		Name:         "Ideal",
		NewFactory:   func() predictor.Factory { return predictor.NewOracle(breakeven) },
		GlobalOracle: true,
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig()
	c.ServiceBase = -1
	if err := c.Validate(); err == nil {
		t.Error("negative service base accepted")
	}
	c = DefaultConfig()
	c.ServiceBandwidth = 0
	if err := c.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	c = DefaultConfig()
	c.Disk.BusyPower = -1
	if _, err := NewRunner(c); err == nil {
		t.Error("bad disk accepted")
	}
}

func TestPolicyValidation(t *testing.T) {
	if err := (Policy{}).Validate(); err == nil {
		t.Error("empty policy accepted")
	}
	if err := (Policy{Name: "x"}).Validate(); err == nil {
		t.Error("factory-less policy accepted")
	}
	if err := (Policy{Name: "x", GlobalOracle: true}).Validate(); err != nil {
		t.Errorf("oracle policy rejected: %v", err)
	}
	p := basePolicy()
	p.RoundTrip = func(f predictor.Factory) (predictor.Factory, error) { return f, nil }
	if err := p.Validate(); err == nil {
		t.Error("RoundTrip without Reuse accepted")
	}
}

// TestTimeoutClassification pins the classification taxonomy on hand-made
// idle periods under a 10 s timeout predictor:
//   - 30 s gap  → hit (off 20 s ≥ breakeven)
//   - 12 s gap  → miss (off 2 s < breakeven)
//   - 7 s gap   → not predicted (timer never expires)
//   - 2 s gap   → short period, no shutdown possible
func TestTimeoutClassification(t *testing.T) {
	r := mustRunner(t)
	tr := handTrace(0, 30, 42, 49, 51)
	res, err := r.RunApp([]*trace.Trace{tr}, tpPolicy(10*trace.Second))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Global
	if g.LongPeriods != 3 || g.ShortPeriods != 1 {
		t.Fatalf("periods: %+v", g)
	}
	if g.HitPrimary != 1 || g.MissPrimary != 1 || g.NotPredicted != 1 {
		t.Fatalf("classification: %+v", g)
	}
	if res.Local != res.Global {
		t.Fatalf("single process: local %+v != global %+v", res.Local, res.Global)
	}
	if res.Cycles != 2 {
		t.Fatalf("cycles = %d (hit + miss shutdowns)", res.Cycles)
	}
}

// TestWaitWindowCancellation: a 1 s-delay decision is cancelled by an
// access arriving inside the window.
func TestWaitWindowCancellation(t *testing.T) {
	r := mustRunner(t)
	// Oracle-like: use PCAP trained by construction? Simpler: a TP with a
	// 1 s timer: gaps of 0.5 s must yield no shutdowns at all.
	tr := handTrace(0, 0.5, 1.0, 1.5)
	res, err := r.RunApp([]*trace.Trace{tr}, tpPolicy(trace.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 || res.Global.Misses() != 0 {
		t.Fatalf("wait window failed: %+v cycles=%d", res.Global, res.Cycles)
	}
}

// TestIdealIsUpperBound: on every application, the oracle's energy is a
// lower bound (≤) of every other policy's, and Base is the upper bound.
func TestIdealIsUpperBound(t *testing.T) {
	r := mustRunner(t)
	app, _ := workload.ByName("xemacs")
	traces := app.Traces(42)[:8]

	ideal, err := r.RunApp(traces, idealPolicy(r.Config().Disk.Breakeven))
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.RunApp(traces, basePolicy())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := r.RunApp(traces, tpPolicy(10*trace.Second))
	if err != nil {
		t.Fatal(err)
	}
	pc := Policy{
		Name:       "PCAP",
		NewFactory: func() predictor.Factory { return core.MustNew(core.DefaultConfig(core.VariantBase)) },
		Reuse:      true,
	}
	pcap, err := r.RunApp(traces, pc)
	if err != nil {
		t.Fatal(err)
	}
	iE, bE, tE, pE := ideal.Energy.Total(), base.Energy.Total(), tp.Energy.Total(), pcap.Energy.Total()
	if !(iE <= tE && iE <= pE && tE <= bE && pE <= bE) {
		t.Fatalf("energy ordering violated: ideal=%.1f tp=%.1f pcap=%.1f base=%.1f", iE, tE, pE, bE)
	}
	if base.Cycles != 0 {
		t.Fatalf("base performed %d shutdowns", base.Cycles)
	}
	if ideal.Global.Misses() != 0 {
		t.Fatalf("oracle mispredicted: %+v", ideal.Global)
	}
	if ideal.Global.NotPredicted != 0 {
		t.Fatalf("oracle missed opportunities: %+v", ideal.Global)
	}
	// Identical traces ⇒ identical period structure across policies.
	if base.Global.LongPeriods != pcap.Global.LongPeriods {
		t.Fatalf("long-period counts differ across policies")
	}
	if base.TotalIOs != pcap.TotalIOs || base.DiskAccesses != pcap.DiskAccesses {
		t.Fatalf("trace-level counters differ across policies")
	}
}

// TestBaseEnergyMatchesHandComputation integrates Base energy analytically
// on a trivial trace and compares.
func TestBaseEnergyMatchesHandComputation(t *testing.T) {
	cfg := fastCfg()
	r, _ := NewRunner(cfg)
	tr := handTrace(0, 10) // exit at 10.1
	res, err := r.RunApp([]*trace.Trace{tr}, basePolicy())
	if err != nil {
		t.Fatal(err)
	}
	svc := cfg.ServiceBase + trace.FromSeconds(4096/cfg.ServiceBandwidth)
	busy := 2 * svc.Seconds() * cfg.Disk.BusyPower
	// Idle: [svcEnd0, 10) long period + [10+svc, 10.1) tail.
	idle := (trace.FromSeconds(10) - svc).Seconds() * cfg.Disk.IdlePower
	tail := (trace.FromSeconds(10.1) - trace.FromSeconds(10) - svc).Seconds() * cfg.Disk.IdlePower
	want := busy + idle + tail
	if got := res.Energy.Total(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("base energy %.9f, want %.9f", got, want)
	}
	if res.Energy.PowerCycle != 0 {
		t.Fatal("base charged power cycles")
	}
}

// TestGlobalBlocksOnOtherProcess: a second process whose timer has not
// expired must delay the global shutdown (the paper's Figure 5 semantics).
func TestGlobalBlocksOnOtherProcess(t *testing.T) {
	r := mustRunner(t)
	tr := &trace.Trace{App: "two"}
	add := func(sec float64, pid trace.PID, block int64) {
		tr.Events = append(tr.Events, trace.Event{
			Time: trace.FromSeconds(sec), Pid: pid, Kind: trace.KindIO,
			Access: trace.AccessRead, PC: 0x1, FD: 3, Block: block, Size: 4096,
		})
	}
	// Process 1 accesses at 0; process 2 at 8; next access at 8+30.
	// TP(10 s): p1 ready at 10, p2 ready at 18 ⇒ shutdown at 18, off 20 s.
	add(0, 1, 0)
	add(8, 2, 100)
	add(38, 1, 200)
	tr.SortStable()
	res, err := r.RunApp([]*trace.Trace{tr}, tpPolicy(10*trace.Second))
	if err != nil {
		t.Fatal(err)
	}
	// The 8→38 global period is long and hit; shutdown at t=18 gives
	// off-time 20 s ≥ breakeven.
	if res.Global.HitPrimary != 1 || res.Global.Misses() != 0 {
		t.Fatalf("global %+v", res.Global)
	}
	// Local: p1's 0→38 gap is the only per-process period (p2 never
	// accesses again, so its tail is not a period).
	if res.Local.LongPeriods != 1 || res.Local.HitPrimary != 1 {
		t.Fatalf("local %+v", res.Local)
	}
}

// TestExitUnblocksGlobal: a process that exits stops constraining the
// global predictor.
func TestExitUnblocksGlobal(t *testing.T) {
	r := mustRunner(t)
	tr := &trace.Trace{App: "exit"}
	ev := func(sec float64, pid trace.PID, kind trace.Kind, block int64) trace.Event {
		e := trace.Event{Time: trace.FromSeconds(sec), Pid: pid, Kind: kind}
		if kind == trace.KindIO {
			e.Access = trace.AccessRead
			e.PC = 0x1
			e.FD = 3
			e.Block = block
			e.Size = 4096
		}
		return e
	}
	tr.Events = []trace.Event{
		ev(0, 1, trace.KindIO, 0),
		ev(0.05, 1, trace.KindFork, 0), // child 0? Fork needs Child field
	}
	tr.Events[1].Child = 2
	tr.Events = append(tr.Events,
		ev(0.1, 2, trace.KindIO, 100),
		ev(2, 1, trace.KindIO, 200),
		// Process 2 exits at t=4 with its 10 s timer pending; process 1's
		// timer expires at 12; the disk must shut down at 12, not be
		// blocked forever by process 2.
		ev(4, 2, trace.KindExit, 0),
		ev(40, 1, trace.KindIO, 300),
		ev(40.2, 1, trace.KindExit, 0),
	)
	res, err := r.RunApp([]*trace.Trace{tr}, tpPolicy(10*trace.Second))
	if err != nil {
		t.Fatal(err)
	}
	// 2→40 global period: shutdown at 12 (p1's timer; p2 exited at 4).
	// Off-time 28 s ⇒ hit.
	if res.Global.Hits() != 1 {
		t.Fatalf("global %+v", res.Global)
	}
	if res.Cycles != 1 {
		t.Fatalf("cycles %d", res.Cycles)
	}
}

// TestPeriodHook: the decision sink sees every global period, the
// terminal one included, with the shutdown the run applied.
func TestPeriodHook(t *testing.T) {
	r := mustRunner(t)
	var log trace.DecisionLog
	tr := handTrace(0, 30, 32)
	if _, err := r.RunSourceTraced(trace.NewSliceSource(tr), tpPolicy(10*trace.Second), TraceOptions{Sink: &log}); err != nil {
		t.Fatal(err)
	}
	// Periods 0→30, 30→32 and the terminal tail after 32.
	recs := log.Records
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	if !recs[0].Shutdown() || recs[0].At != trace.FromSeconds(10) || recs[0].Terminal() {
		t.Fatalf("record 0: %+v", recs[0])
	}
	if recs[1].Shutdown() || recs[1].Terminal() {
		t.Fatalf("record 1: %+v", recs[1])
	}
	if !recs[2].Terminal() {
		t.Fatalf("record 2: %+v", recs[2])
	}
}

// TestReuseVsDiscard: with table reuse, PCAP's primary coverage across
// executions must exceed the discard variant's (the paper's Figure 10).
func TestReuseVsDiscard(t *testing.T) {
	r := mustRunner(t)
	app, _ := workload.ByName("nedit")
	traces := app.Traces(123)

	reuse := Policy{
		Name:       "PCAP",
		NewFactory: func() predictor.Factory { return core.MustNew(core.DefaultConfig(core.VariantBase)) },
		Reuse:      true,
	}
	discard := Policy{
		Name:       "PCAPa",
		NewFactory: func() predictor.Factory { return core.MustNew(core.DefaultConfig(core.VariantBase)) },
	}
	a, err := r.RunApp(traces, reuse)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunApp(traces, discard)
	if err != nil {
		t.Fatal(err)
	}
	if a.Global.HitPrimary <= b.Global.HitPrimary {
		t.Fatalf("reuse primary hits %d not above discard %d", a.Global.HitPrimary, b.Global.HitPrimary)
	}
	// nedit has exactly one shutdown opportunity per execution, so the
	// discard variant can never make a primary prediction.
	if b.Global.HitPrimary != 0 {
		t.Fatalf("discard primary hits = %d on nedit", b.Global.HitPrimary)
	}
	if a.StateEntries <= 0 {
		t.Fatalf("state entries %d", a.StateEntries)
	}
}

// TestRoundTripHookRuns verifies the persistence round-trip path is
// exercised and preserves behaviour.
func TestRoundTripHookRuns(t *testing.T) {
	r := mustRunner(t)
	app, _ := workload.ByName("nedit")
	traces := app.Traces(123)[:6]
	calls := 0
	pol := Policy{
		Name:       "PCAP",
		NewFactory: func() predictor.Factory { return core.MustNew(core.DefaultConfig(core.VariantBase)) },
		Reuse:      true,
		RoundTrip: func(f predictor.Factory) (predictor.Factory, error) {
			calls++
			return f, nil
		},
	}
	if _, err := r.RunApp(traces, pol); err != nil {
		t.Fatal(err)
	}
	if calls != len(traces)-1 {
		t.Fatalf("round trip ran %d times, want %d", calls, len(traces)-1)
	}
}

func TestRunAppErrors(t *testing.T) {
	r := mustRunner(t)
	if _, err := r.RunApp(nil, basePolicy()); err == nil {
		t.Error("empty trace list accepted")
	}
	if _, err := r.RunApp([]*trace.Trace{handTrace(0)}, Policy{}); err == nil {
		t.Error("invalid policy accepted")
	}
}

// TestEnergyConservation: for any policy, total energy must lie between
// the all-standby floor and the all-busy ceiling for the simulated time.
func TestEnergyConservation(t *testing.T) {
	r := mustRunner(t)
	app, _ := workload.ByName("writer")
	traces := app.Traces(5)[:4]
	for _, pol := range []Policy{basePolicy(), tpPolicy(10 * trace.Second), idealPolicy(r.Config().Disk.Breakeven)} {
		res, err := r.RunApp(traces, pol)
		if err != nil {
			t.Fatal(err)
		}
		secs := res.SimTime.Seconds()
		floor := secs * r.Config().Disk.StandbyPower
		ceil := secs*r.Config().Disk.BusyPower + float64(res.Cycles)*r.Config().Disk.CycleEnergy() + 1
		total := res.Energy.Total()
		if total < floor || total > ceil {
			t.Errorf("%s: energy %.1f outside [%.1f, %.1f]", pol.Name, total, floor, ceil)
		}
	}
}

// TestFlushDaemonExcludedFromLocal: the kernel flush daemon participates
// globally but not in per-process statistics.
func TestFlushDaemonExcludedFromLocal(t *testing.T) {
	r := mustRunner(t)
	tr := &trace.Trace{App: "flush"}
	// A write dirties a block at t=1; the flush daemon writes it at 35 s;
	// the next app access is at 200 s.
	tr.Events = []trace.Event{
		{Time: trace.FromSeconds(0), Pid: 1, Kind: trace.KindIO, Access: trace.AccessRead, PC: 0x1, FD: 3, Block: 0, Size: 4096},
		{Time: trace.FromSeconds(1), Pid: 1, Kind: trace.KindIO, Access: trace.AccessWrite, PC: 0x2, FD: 3, Block: 50, Size: 4096},
		{Time: trace.FromSeconds(200), Pid: 1, Kind: trace.KindIO, Access: trace.AccessRead, PC: 0x1, FD: 3, Block: 60, Size: 4096},
		{Time: trace.FromSeconds(201), Pid: 1, Kind: trace.KindExit},
	}
	res, err := r.RunApp([]*trace.Trace{tr}, tpPolicy(10*trace.Second))
	if err != nil {
		t.Fatal(err)
	}
	// Global: 0→35 (flush) and 35→200 periods, both long.
	if res.Global.LongPeriods != 2 {
		t.Fatalf("global %+v", res.Global)
	}
	// Local: only the app's own 0→200 gap (the write was absorbed by the
	// cache, so the app performed just two disk accesses).
	if res.Local.LongPeriods != 1 {
		t.Fatalf("local %+v", res.Local)
	}
	if res.Cache.FlushWrites != 1 {
		t.Fatalf("cache stats %+v", res.Cache)
	}
}

var _ = fscache.KernelFlushPID // document the dependency under test

var _ = disk.Params{}
