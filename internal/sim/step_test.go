package sim

import (
	"errors"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// TestPrepareRejectsInvalidExecution: an execution whose time runs
// backwards, in which a process issues I/O or exits again after its
// exit, which names the flush daemon's pid, or which holds an I/O with a
// zero PC, a negative size or a size over MaxIOBytes, fails every cell
// of its pass with one *InvalidExecutionError naming the offending
// event's time. The committed files are short text traces on which Base
// used to report shutdowns (after an exit) or a normal report (the
// others); the oversize one became 524,289 disk accesses, and the second
// exit moved its process's exit later, changing TP's energy.
func TestPrepareRejectsInvalidExecution(t *testing.T) {
	open := func(name string) func(t *testing.T) trace.Source {
		return func(t *testing.T) trace.Source {
			fs, err := trace.OpenTraceFileOpts(filepath.Join("testdata", "invalid", name), trace.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs
		}
	}
	events := func(build func(ev *slotEvents)) func(t *testing.T) trace.Source {
		return func(*testing.T) trace.Source {
			var ev slotEvents
			build(&ev)
			return trace.NewSliceSource(&trace.Trace{App: "hand", Events: ev})
		}
	}
	for _, tc := range []struct {
		name string
		src  func(t *testing.T) trace.Source
		at   float64 // the offending event's time, seconds
	}{
		{"io-after-exit", open("io-after-exit.txt"), 30},
		{"io-after-exit-cached", open("io-after-exit-cached.txt"), 30},
		{"time-backwards", open("time-backwards.txt"), 0.001},
		{"flush-pid-io", open("flush-pid-io.txt"), 1},
		{"zero-pc", open("zero-pc.txt"), 30},
		{"negative-size", open("negative-size.txt"), 30},
		{"oversize-io", open("oversize-io.txt"), 1},
		{"double-exit", open("double-exit.txt"), 50},
		// The flush daemon's pid writes back after any exit, so an exit
		// by it would be an access after its exit.
		{"flush-daemon-exit", events(func(ev *slotEvents) {
			ev.io(0, 1)
			ev.write(1, 1, 7)
			ev.exit(2, fscache.KernelFlushPID)
		}), 2},
		{"flush-pid-fork", events(func(ev *slotEvents) {
			ev.io(0, 1)
			ev.fork(1, 1, fscache.KernelFlushPID)
		}), 1},
		{"io-at-bound", events(func(ev *slotEvents) {
			ev.io(0, 1)
			(*ev)[0].Size = MaxIOBytes
			ev.io(1, 1)
			(*ev)[1].Size = MaxIOBytes + 1
		}), 1},
		{"exit-at-T0-before-access", events(func(ev *slotEvents) {
			ev.io(0, 1)
			ev.exit(10, 1)
			ev.io(10, 1)
		}), 10},
		// Pid 5 exits and is forked again: trace.Validator forbids reusing
		// an exited pid, so its next access is an access after its exit.
		{"io-after-refork", events(func(ev *slotEvents) {
			ev.io(0, 5)
			ev.io(1, 2)
			ev.exit(2, 5)
			ev.fork(3, 2, 5)
			ev.io(4, 5)
		}), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := mustRunner(t)
			_, errs := RunCells(tc.src(t), []Cell{{Runner: r, Policy: basePolicy()}, {Runner: r, Policy: tpPolicy(trace.Second)}})
			for i, err := range errs {
				var inv *InvalidExecutionError
				if !errors.As(err, &inv) {
					t.Fatalf("cell %d: error %v, want an *InvalidExecutionError", i, err)
				}
				if inv.Time != trace.FromSeconds(tc.at) {
					t.Errorf("cell %d: %v names time %v, want %v", i, err, inv.Time, trace.FromSeconds(tc.at))
				}
			}
		})
	}
}

// TestCombineSkipEdges pins the global decision of the 10 s period on
// hand executions at the edges of combineSkips: exits at and around the
// period's ends, a never-ready decision, another process ready first,
// and a GlobalOracle cell, which never consults the combiner. Pid 1
// accesses the disk at 10 s; pid 2's first access is at 0 s.
func TestCombineSkipEdges(t *testing.T) {
	const a, b = trace.PID(1), trace.PID(2)
	never := predictor.Decision{}
	ready := func(sec float64, src predictor.Source) predictor.Decision {
		return predictor.Decision{Shutdown: true, Delay: trace.FromSeconds(sec), Source: src}
	}
	type want struct {
		shutdown bool
		at       float64
		src      predictor.Source
	}
	for _, tc := range []struct {
		name   string
		events func(ev *slotEvents)
		f      fixedFactory
		oracle bool
		want   want
	}{
		{
			// Pid 1 exits right after its access: no live process is left
			// in the period, so pid 1's last decision, never ready, still
			// governs it and the disk keeps spinning.
			name: "own-exit-at-T0-after-access",
			events: func(ev *slotEvents) {
				ev.io(10, a)
				ev.exit(10, a)
				ev.io(40, b)
			},
			f:    fixedFactory{a: never, b: never},
			want: want{},
		},
		{
			// As above, but pid 1 is ready 5 s after its access: the disk
			// shuts down then, on pid 1's source, not at the exit.
			name: "own-exit-at-T0-ready-later",
			events: func(ev *slotEvents) {
				ev.io(10, a)
				ev.exit(10, a)
				ev.io(40, b)
			},
			f:    fixedFactory{a: ready(5, predictor.SourcePrimary), b: never},
			want: want{true, 15, predictor.SourcePrimary},
		},
		{
			name: "other-exit-at-T0-before-access",
			events: func(ev *slotEvents) {
				ev.io(0, b)
				ev.exit(10, b)
				ev.io(10, a)
				ev.io(40, a)
			},
			f:    fixedFactory{a: ready(50, predictor.SourcePrimary), b: never},
			want: want{},
		},
		{
			// Pid 1 never becomes ready but exits inside the period; pid 2
			// has been ready since 15 s.
			name: "own-exit-inside",
			events: func(ev *slotEvents) {
				ev.io(0, b)
				ev.io(10, a)
				ev.exit(20, a)
				ev.io(40, b)
			},
			f:    fixedFactory{a: never, b: ready(15, predictor.SourcePrimary)},
			want: want{true, 20, predictor.SourcePrimary},
		},
		{
			name: "own-exit-at-T1",
			events: func(ev *slotEvents) {
				ev.io(0, b)
				ev.io(10, a)
				ev.exit(40, a)
				ev.io(40, b)
			},
			f:    fixedFactory{a: never, b: ready(15, predictor.SourcePrimary)},
			want: want{},
		},
		{
			name: "never-ready",
			events: func(ev *slotEvents) {
				ev.io(0, b)
				ev.io(10, a)
				ev.io(40, a)
			},
			f:    fixedFactory{a: never, b: ready(1, predictor.SourcePrimary)},
			want: want{},
		},
		{
			name: "other-ready-before-T1",
			events: func(ev *slotEvents) {
				ev.io(0, b)
				ev.io(10, a)
				ev.io(40, a)
			},
			f:    fixedFactory{a: ready(30, predictor.SourcePrimary), b: ready(15, predictor.SourceBackup)},
			want: want{},
		},
		{
			name: "own-ready-before-T1",
			events: func(ev *slotEvents) {
				ev.io(0, b)
				ev.io(10, a)
				ev.io(40, a)
			},
			f:    fixedFactory{a: ready(15, predictor.SourcePrimary), b: ready(15, predictor.SourceBackup)},
			want: want{true, 25, predictor.SourcePrimary},
		},
		{
			// The oracle shuts a long period down at its start whatever
			// the processes decide.
			name: "global-oracle",
			events: func(ev *slotEvents) {
				ev.io(0, b)
				ev.io(10, a)
				ev.io(40, a)
			},
			f:      fixedFactory{a: never, b: never},
			oracle: true,
			want:   want{true, 10, predictor.SourcePrimary},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ev slotEvents
			tc.events(&ev)
			pol := Policy{Name: "fixed", NewFactory: func() predictor.Factory { return tc.f }, GlobalOracle: tc.oracle}
			var log trace.DecisionLog
			tr := &trace.Trace{App: "skip", Events: ev}
			if _, err := mustRunner(t).RunSourceTraced(trace.NewSliceSource(tr), pol, TraceOptions{Sink: &log}); err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(log.Records, func(r trace.DecisionRecord) bool { return r.Start == trace.FromSeconds(10) })
			if i < 0 {
				t.Fatalf("no record for the 10 s period in %+v", log.Records)
			}
			rec := log.Records[i]
			var got want
			if rec.Shutdown() {
				got = want{true, rec.At.Seconds(), predictor.Source(rec.Source)}
			}
			if got != tc.want {
				t.Errorf("10 s period: %+v, want %+v (record %+v)", got, tc.want, rec)
			}
		})
	}
}

// TestCombineSkipsOnlyWhereCombineCannotShutDown is the skip's property
// test: over random small executions and decision states, whenever
// combineSkips holds, combine returns no shutdown. The generator must
// also reach periods that shut down, or the property says little.
func TestCombineSkipsOnlyWhereCombineCannotShutDown(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	at := func(n int) trace.Time { return trace.Time(rng.IntN(n)) }
	var skipped, shut int
	for iter := 0; iter < 20000; iter++ {
		ex := &execution{}
		n := 1 + rng.IntN(4)
		dec := make([]decisionState, n)
		var decided []int32
		for s := range n {
			p := procInfo{pid: trace.PID(1 + rng.IntN(1000))}
			if slices.ContainsFunc(ex.procs, func(q procInfo) bool { return q.pid == p.pid }) {
				p.pid += 1000 * trace.PID(s+1) // keep pids distinct
			}
			if rng.IntN(2) == 0 {
				p.exit, p.hasExit = at(60), true
				ex.exits = append(ex.exits, trace.Event{Time: p.exit, Pid: p.pid, Kind: trace.KindExit})
			}
			ex.procs = append(ex.procs, p)
			dec[s] = decisionState{ready: infTime, source: predictor.Source(1 + rng.IntN(2))}
			if rng.IntN(3) > 0 {
				dec[s].ready = at(70)
			}
			decided = append(decided, int32(s))
		}
		slices.SortFunc(ex.exits, func(x, y trace.Event) int { return int(x.Time - y.Time) })
		slices.SortFunc(decided, func(x, y int32) int { return int(ex.procs[x].pid - ex.procs[y].pid) })
		T0 := at(50)
		T1 := T0 + at(30)
		eidx := 0
		for eidx < len(ex.exits) && ex.exits[eidx].Time <= T0 {
			eidx++
		}
		slot := int32(rng.IntN(n))
		s, src, found := combine(ex, dec, decided, eidx, T0, T1)
		if found {
			shut++
		}
		if combineSkips(ex, slot, dec[slot].ready, eidx, T0, T1) {
			skipped++
			if found {
				t.Fatalf("iteration %d: combineSkips holds for slot %d but combine shuts down at %v (%v)\nprocs %+v\nexits %+v\ndec %+v\nT0 %v T1 %v",
					iter, slot, s, src, ex.procs, ex.exits, dec, T0, T1)
			}
		}
	}
	t.Logf("%d skipped, %d shut down", skipped, shut)
	if skipped < 2000 || shut < 2000 {
		t.Fatalf("%d skipped and %d shut-down periods of 20000: the generator misses a side", skipped, shut)
	}
}

// TestCombineEveryProcessExited pins combine's "every process exited"
// rule: once the only decided process exits inside the window, its last
// standing decision still governs the rest of the window. A process
// ready later shuts the disk down at its ready time, on its own source,
// not at the exit; one that never becomes ready blocks the shutdown. A
// valid trace reaches this rule (see TestCombineSkipEdges' own-exit
// cases and TestExitedProcessesKeepTheirDecisions).
func TestCombineEveryProcessExited(t *testing.T) {
	ex := &execution{
		procs: []procInfo{{pid: 3, exit: 20, hasExit: true}},
		exits: []trace.Event{{Time: 20, Pid: 3, Kind: trace.KindExit}},
	}
	dec := []decisionState{{ready: 30, source: predictor.SourcePrimary}}
	s, src, found := combine(ex, dec, []int32{0}, 0, 10, 40)
	if !found || s != 30 || src != predictor.SourcePrimary {
		t.Fatalf("combine = (%v, %v, %v), want a primary shutdown at the decision's ready time, 30", s, src, found)
	}
	dec[0].ready = infTime
	if s, src, found := combine(ex, dec, []int32{0}, 0, 10, 40); found {
		t.Fatalf("combine = (%v, %v, %v), want no shutdown under a never-ready decision", s, src, found)
	}
}

// TestExitedProcessesKeepTheirDecisions replays the committed trace in
// which pid 1 reads at 1 s and exits at 2 s, leaving no live process
// until pid 2 reads at 60 s. Base, always on, must never cycle, and
// TP(10 s) must shut down when pid 1's timer runs out at 11 s, not at
// the exit; Ideal shows the period is long enough to cycle.
func TestExitedProcessesKeepTheirDecisions(t *testing.T) {
	fs, err := trace.OpenTraceFileOpts(filepath.Join("testdata", "exited-decisions.txt"), trace.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	r := mustRunner(t)
	var log trace.DecisionLog
	res, errs := RunCells(fs, []Cell{
		{Runner: r, Policy: basePolicy()},
		{Runner: r, Policy: tpPolicy(10 * trace.Second), Trace: TraceOptions{Sink: &log}},
		{Runner: r, Policy: idealPolicy(r.cfg.Disk.Breakeven)},
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	if base := res[0]; base.Cycles != 0 || base.Wakeups != 0 {
		t.Errorf("Base: %d cycles, %d wakeups, want 0", base.Cycles, base.Wakeups)
	}
	if tp, ideal := res[1], res[2]; tp.Cycles != 1 || ideal.Cycles != 1 {
		t.Errorf("TP %d cycles, Ideal %d, want 1 each", tp.Cycles, ideal.Cycles)
	}
	i := slices.IndexFunc(log.Records, func(rec trace.DecisionRecord) bool { return rec.Start == trace.FromSeconds(1) })
	if i < 0 || !log.Records[i].Shutdown() || log.Records[i].At != trace.FromSeconds(11) {
		t.Fatalf("TP's 1 s period: want a shutdown at 11 s, got %+v", log.Records)
	}
}
