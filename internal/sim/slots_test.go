package sim

import (
	"fmt"
	"testing"

	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// fixedFactory gives every pid a fixed decision on each of its accesses.
type fixedFactory map[trace.PID]predictor.Decision

func (f fixedFactory) Name() string { return "fixed" }

func (f fixedFactory) NewProcess(pid trace.PID) predictor.Process { return fixedProcess(f[pid]) }

type fixedProcess predictor.Decision

func (p fixedProcess) OnAccess(predictor.Access) predictor.Decision { return predictor.Decision(p) }

// slotEvents builds events for the slot tests; I/O events read a fresh
// block each so the file cache never absorbs them.
type slotEvents []trace.Event

func (ev *slotEvents) io(sec float64, pid trace.PID) {
	*ev = append(*ev, trace.Event{
		Time: trace.FromSeconds(sec), Pid: pid, Kind: trace.KindIO,
		Access: trace.AccessRead, PC: 0x10 + trace.PC(pid), FD: 3,
		Block: int64(len(*ev)) * 100, Size: 4096,
	})
}

func (ev *slotEvents) write(sec float64, pid trace.PID, block int64) {
	*ev = append(*ev, trace.Event{
		Time: trace.FromSeconds(sec), Pid: pid, Kind: trace.KindIO,
		Access: trace.AccessWrite, PC: 0x20, FD: 4, Block: block, Size: 4096,
	})
}

func (ev *slotEvents) fork(sec float64, parent, child trace.PID) {
	*ev = append(*ev, trace.Event{Time: trace.FromSeconds(sec), Pid: parent, Kind: trace.KindFork, Child: child})
}

func (ev *slotEvents) exit(sec float64, pid trace.PID) {
	*ev = append(*ev, trace.Event{Time: trace.FromSeconds(sec), Pid: pid, Kind: trace.KindExit})
}

// TestCombineTieBreakFollowsPidOrder pins the global combiner's tie-break:
// among live processes ready at the same instant, the one with the highest
// pid names the period's source, whatever order the processes were first
// seen in. Pid 5 performs I/O before pid 2, so first-sighting order and
// pid order disagree; both become ready at 12 s with different sources,
// and the 4 s → 40 s period must carry pid 5's.
func TestCombineTieBreakFollowsPidOrder(t *testing.T) {
	const hi, lo = trace.PID(5), trace.PID(2)
	cases := []struct {
		name   string
		events func(ev *slotEvents)
	}{
		{
			name: "first-sighted-high",
			events: func(ev *slotEvents) {
				ev.io(0, hi)
				ev.io(1, lo)
				ev.io(4, hi)
				ev.io(40, lo)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ev slotEvents
			tc.events(&ev)
			f := fixedFactory{
				hi: {Shutdown: true, Delay: 8 * trace.Second, Source: predictor.SourcePrimary},
				lo: {Shutdown: true, Delay: 11 * trace.Second, Source: predictor.SourceBackup},
			}
			pol := Policy{Name: "fixed", NewFactory: func() predictor.Factory { return f }}
			var log trace.DecisionLog
			tr := &trace.Trace{App: "tie", Events: ev}
			if _, err := mustRunner(t).RunSourceTraced(trace.NewSliceSource(tr), pol, TraceOptions{Sink: &log}); err != nil {
				t.Fatal(err)
			}
			var got *trace.DecisionRecord
			for i := range log.Records {
				if log.Records[i].Start == trace.FromSeconds(4) {
					got = &log.Records[i]
				}
			}
			if got == nil {
				t.Fatalf("no record for the 4 s period in %+v", log.Records)
			}
			if got.Pid != hi || !got.Shutdown() || got.At != trace.FromSeconds(12) {
				t.Fatalf("4 s period: %+v; want pid %d shutting down at 12 s", *got, hi)
			}
			if got.Source != uint8(predictor.SourcePrimary) {
				t.Errorf("4 s period source %v, want pid %d's %v", predictor.Source(got.Source), hi, predictor.SourcePrimary)
			}
		})
	}
}

// slotAllocsPerRun is the measured steady-state allocation count of
// TestRunCellsSteadyStateAllocs' pass before process slots went dense;
// the pass must never allocate more.
const slotAllocsPerRun = 17

// TestRunCellsSteadyStateAllocs pins the allocations of a warmed-runner
// RunCells pass: two cells over two executions of three processes each
// (the root, a forked child and the kernel flush daemon).
func TestRunCellsSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; the non-race pass enforces the count")
	}
	var traces []*trace.Trace
	for x := 0; x < 2; x++ {
		var ev slotEvents
		ev.io(0, 1)
		ev.write(1, 1, 7) // dirtied; the flush daemon writes it back
		ev.fork(2, 1, 2)
		ev.io(3, 2)
		ev.exit(5, 2)
		ev.io(60, 1)
		ev.exit(61, 1)
		traces = append(traces, &trace.Trace{App: "slots", Execution: x, Events: ev})
	}
	r := mustRunner(t)
	cells := []Cell{{Runner: r, Policy: tpPolicy(10 * trace.Second)}, {Runner: r, Policy: basePolicy()}}
	run := func() {
		res, errs := RunCells(trace.NewSliceSource(traces...), cells)
		for i, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			if res[i].Cache.FlushWrites != 2 {
				t.Fatalf("cell %d: %d flush writes, want one per execution", i, res[i].Cache.FlushWrites)
			}
		}
	}
	run() // warmup: the pooled runState reaches its high-water mark
	got := testing.AllocsPerRun(20, run)
	t.Logf("%.1f allocs per pass", got)
	if got > slotAllocsPerRun {
		t.Fatalf("%.1f allocs per pass, want at most %d", got, slotAllocsPerRun)
	}
}

// checkPrepared compares a prepared execution's slot and localGap
// columns against brute force.
func checkPrepared(t *testing.T, ex *execution) {
	t.Helper()
	if len(ex.slot) != len(ex.accesses) || len(ex.localGap) != len(ex.accesses) {
		t.Fatalf("%d accesses, %d slots, %d localGap", len(ex.accesses), len(ex.slot), len(ex.localGap))
	}
	seen := make(map[trace.PID]bool)
	for _, p := range ex.procs {
		if seen[p.pid] {
			t.Fatalf("pid %d holds two slots", p.pid)
		}
		seen[p.pid] = true
	}
	for i, a := range ex.accesses {
		if got := ex.procs[ex.slot[i]].pid; got != a.Pid {
			t.Fatalf("access %d: slot %d is pid %d, want %d", i, ex.slot[i], got, a.Pid)
		}
		want := trace.Time(-1)
		for j := i + 1; j < len(ex.accesses); j++ {
			if ex.accesses[j].Pid == a.Pid {
				want = ex.accesses[j].Time - a.Time
				break
			}
		}
		if ex.localGap[i] != want {
			t.Fatalf("access %d (pid %d): localGap %v, want %v", i, a.Pid, ex.localGap[i], want)
		}
	}
}

// TestPrepareMatchesBruteForce checks prepare's slot and localGap columns
// on a hand trace (fork, exit, flush-daemon writes, interleaved pids) and
// on the first execution of every application, preparing each twice in
// one prepState so the second pass reuses the first's buffers.
func TestPrepareMatchesBruteForce(t *testing.T) {
	var ev slotEvents
	ev.io(0, 3)
	ev.write(0.5, 3, 7)
	ev.fork(1, 3, 4)
	ev.io(2, 4)
	ev.io(3, 3)
	ev.write(4, 4, 8)
	ev.io(5, 4)
	ev.exit(6, 4)
	ev.io(50, 3)
	ev.io(51, 3)
	ev.exit(52, 3)
	traces := []*trace.Trace{{App: "hand", Events: ev}}
	for _, app := range workload.Apps() {
		traces = append(traces, app.Trace(1, 0))
	}
	var ps prepState
	for _, tr := range traces {
		t.Run(tr.App, func(t *testing.T) {
			for pass := 0; pass < 2; pass++ {
				ex, err := ps.prepare(tr, DefaultConfig().Cache)
				if err != nil {
					t.Fatal(err)
				}
				checkPrepared(t, ex)
			}
		})
	}
	ex, err := ps.prepare(traces[0], DefaultConfig().Cache)
	if err != nil {
		t.Fatal(err)
	}
	var pids []trace.PID
	for _, p := range ex.procs {
		pids = append(pids, p.pid)
	}
	if want := []trace.PID{3, 4, fscache.KernelFlushPID}; fmt.Sprint(pids) != fmt.Sprint(want) {
		t.Errorf("hand trace slots hold pids %v, want %v in first-sighting order", pids, want)
	}
}

// TestPrepStateFollowsCacheConfig: every runner draws from one pool of
// prepStates, so a state last used under one file cache configuration
// must prepare under another exactly as a fresh state does.
func TestPrepStateFollowsCacheConfig(t *testing.T) {
	app, _ := workload.ByName("mozilla")
	tr := app.Trace(1, 0)
	small := DefaultConfig().Cache
	small.SizeBytes = small.BlockSize
	var ps prepState
	for _, cfg := range []fscache.Config{DefaultConfig().Cache, small, DefaultConfig().Cache} {
		got, err := ps.prepare(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := new(prepState).prepare(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.accesses) != len(want.accesses) || got.cacheStats != want.cacheStats {
			t.Errorf("cache %d B: reused state gives %d accesses %+v, fresh %d %+v",
				cfg.SizeBytes, len(got.accesses), got.cacheStats, len(want.accesses), want.cacheStats)
		}
	}
	if fresh, err := new(prepState).prepare(tr, small); err != nil {
		t.Fatal(err)
	} else if def, _ := new(prepState).prepare(tr, DefaultConfig().Cache); len(fresh.accesses) == len(def.accesses) {
		t.Fatalf("a one-block cache does not change mozilla's disk accesses (%d); the check above proves nothing", len(def.accesses))
	}
}
