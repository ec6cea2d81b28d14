package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"pcapsim/internal/core"
	"pcapsim/internal/disk"
	"pcapsim/internal/experiments"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// countingSource counts the executions pulled from it.
type countingSource struct {
	trace.Source
	n *int
}

func (c countingSource) NextExec() (string, int, bool) {
	app, exec, ok := c.Source.NextExec()
	if ok {
		*c.n++
	}
	return app, exec, ok
}

// diffCells is the differential matrix: runners with different disks and
// the low-power wait-window, reused and round-tripped, discarding and
// oracle policies, and a traced cell. Every call returns fresh decision
// logs, so a shared pass and a solo run never share a sink.
func diffCells(t *testing.T, s *experiments.Suite, short bool) []sim.Cell {
	t.Helper()
	def := sim.MustNewRunner(sim.DefaultConfig())
	cfg := sim.DefaultConfig()
	cfg.Disk = disk.WirelessNIC()
	nic := sim.MustNewRunner(cfg)
	cfg = sim.DefaultConfig()
	cfg.Disk = cfg.Disk.WithLowPowerIdle(experiments.DefaultLowPowerIdleWatts)
	cfg.LowPowerWaitWindow = true
	lp := sim.MustNewRunner(cfg)

	pcap := s.PolicyPCAP(core.VariantBase)
	cells := []sim.Cell{
		{Runner: def, Policy: s.PolicyBase()},
		{Runner: def, Policy: pcap},
		{Runner: nic, Policy: s.PolicyTP()},
		{Runner: lp, Policy: pcap},
		{Runner: def, Policy: s.PolicyIdeal(), Trace: sim.TraceOptions{Sink: &trace.DecisionLog{}}},
	}
	if short {
		return cells
	}
	return append(cells,
		sim.Cell{Runner: def, Policy: s.PolicyLT()},
		sim.Cell{Runner: def, Policy: s.PolicyLTa()},
		sim.Cell{Runner: def, Policy: s.PolicyPCAPa()},
		sim.Cell{Runner: nic, Policy: s.PolicyIdeal()},
		sim.Cell{Runner: lp, Policy: s.PolicyPCAPa(), Trace: sim.TraceOptions{
			Sink: &trace.DecisionLog{},
			Flip: func(k int64, _ bool, _ trace.PC) bool { return k%7 == 3 },
		}},
	)
}

// TestRunCellsMatchesRunSource is the shared driver's differential test:
// every cell of a RunCells pass must produce exactly the result — and, for
// traced cells, the decision records — of a one-cell RunSourceTraced over
// the same executions, while the pass pulls each execution once.
func TestRunCellsMatchesRunSource(t *testing.T) {
	short := testing.Short()
	streamed := experiments.NewDefaultSuite()
	pinned := experiments.NewDefaultSuite()
	pinned.RetainPrepared()
	scaled := experiments.NewDefaultSuite()
	scaled.SetScale(2)

	nedit, _ := workload.ByName("nedit")
	xemacs, _ := workload.ByName("xemacs")
	// A silent execution — no disk accesses at all — between two real
	// ones.
	silent := &trace.Trace{App: nedit.Name, Execution: 1, Events: []trace.Event{
		{Time: 0, Pid: 1, Kind: trace.KindFork, Child: 2},
		{Time: trace.Second, Pid: 2, Kind: trace.KindExit},
		{Time: 3 * trace.Second, Pid: 1, Kind: trace.KindExit},
	}}
	neditTraces := nedit.Traces(experiments.DefaultSeed)

	sources := []struct {
		name  string
		execs int
		open  func() trace.Source
	}{
		{"pinned/nedit", nedit.Executions, func() trace.Source { return pinned.SourceFor(nedit) }},
		{"silent", 3, func() trace.Source { return trace.NewSliceSource(neditTraces[0], silent, neditTraces[1]) }},
		{"stream/nedit", nedit.Executions, func() trace.Source { return streamed.SourceFor(nedit) }},
		{"scale2/nedit", 2 * nedit.Executions, func() trace.Source { return scaled.SourceFor(nedit) }},
	}
	if !short {
		sources = append(sources, struct {
			name  string
			execs int
			open  func() trace.Source
		}{"pinned/xemacs", xemacs.Executions, func() trace.Source { return pinned.SourceFor(xemacs) }})
	}

	for _, sc := range sources {
		t.Run(sc.name, func(t *testing.T) {
			pulled := 0
			cells := diffCells(t, streamed, short)
			got, errs := sim.RunCells(countingSource{sc.open(), &pulled}, cells)
			if pulled != sc.execs {
				t.Errorf("shared pass pulled %d executions, want %d", pulled, sc.execs)
			}
			for i, c := range diffCells(t, streamed, short) {
				name := fmt.Sprintf("cell %d (%s)", i, c.Policy.Name)
				if errs[i] != nil {
					t.Fatalf("%s: %v", name, errs[i])
				}
				want, err := c.Runner.RunSourceTraced(sc.open(), c.Policy, c.Trace)
				if err != nil {
					t.Fatalf("%s: solo: %v", name, err)
				}
				if !reflect.DeepEqual(got[i], want) || fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want) {
					t.Errorf("%s: shared pass differs from RunSource:\n got %+v\nwant %+v", name, got[i], want)
				}
				if c.Trace.Sink != nil {
					shared := cells[i].Trace.Sink.(*trace.DecisionLog)
					solo := c.Trace.Sink.(*trace.DecisionLog)
					if len(solo.Records) == 0 || !reflect.DeepEqual(shared.Records, solo.Records) {
						t.Errorf("%s: decision records differ (%d shared, %d solo)", name, len(shared.Records), len(solo.Records))
					}
				}
			}
		})
	}
}

// TestRunCellsPositionIndependent pins that a machine's per-execution
// loop keeps nothing of another machine's: each of ten mixed cells gives
// the same result whether it runs alone, first or last in its pass. The
// passes rotate the cells, so every cell runs first in one pass and last
// in another, after cells of other policies, devices and tracing.
func TestRunCellsPositionIndependent(t *testing.T) {
	s := experiments.NewDefaultSuite()
	cfg := sim.DefaultConfig()
	cfg.Disk = disk.WirelessNIC()
	nic, err := experiments.NewSuite(experiments.DefaultSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	def, nicRunner := sim.MustNewRunner(sim.DefaultConfig()), sim.MustNewRunner(cfg)
	cfg = sim.DefaultConfig()
	cfg.Disk = cfg.Disk.WithLowPowerIdle(experiments.DefaultLowPowerIdleWatts)
	cfg.LowPowerWaitWindow = true
	lp := sim.MustNewRunner(cfg)
	// cells returns fresh cells, so no two passes share a decision log.
	cells := func() []sim.Cell {
		return []sim.Cell{
			{Runner: def, Policy: s.PolicyBase()},
			{Runner: def, Policy: s.PolicyTP()},
			{Runner: def, Policy: s.PolicyPCAP(core.VariantH)},
			{Runner: def, Policy: s.PolicyLT()},
			{Runner: def, Policy: s.PolicyIdeal()},
			{Runner: def, Policy: s.PolicyPCAP(core.VariantBase), Trace: sim.TraceOptions{
				Sink: &trace.DecisionLog{},
				Flip: func(k int64, _ bool, _ trace.PC) bool { return k%5 == 2 },
			}},
			{Runner: lp, Policy: s.PolicyPCAP(core.VariantBase)},
			{Runner: nicRunner, Policy: nic.PolicyPCAP(core.VariantBase)},
			{Runner: nicRunner, Policy: nic.PolicyTP()},
			{Runner: def, Policy: s.PolicyLTa()},
		}
	}
	// A hand execution whose children exit inside idle periods, so the
	// combiner's exit cursor moves mid-execution; generated executions
	// exit only at their end.
	io := func(sec float64, pid trace.PID) trace.Event {
		return trace.Event{Time: trace.FromSeconds(sec), Pid: pid, Kind: trace.KindIO,
			Access: trace.AccessRead, PC: 0x10 + trace.PC(sec), FD: 3, Block: int64(sec * 100), Size: 4096}
	}
	hand := &trace.Trace{App: "nedit", Execution: 1, Events: []trace.Event{
		io(0, 1),
		{Time: trace.FromSeconds(1), Pid: 1, Kind: trace.KindFork, Child: 2},
		io(2, 2),
		{Time: trace.FromSeconds(3), Pid: 2, Kind: trace.KindExit},
		io(40, 1),
		{Time: trace.FromSeconds(41), Pid: 1, Kind: trace.KindFork, Child: 3},
		io(42, 3),
		{Time: trace.FromSeconds(45), Pid: 3, Kind: trace.KindExit},
		io(90, 1),
		{Time: trace.FromSeconds(120), Pid: 1, Kind: trace.KindExit},
	}}
	nedit, _ := workload.ByName("nedit")
	generated := nedit.Traces(experiments.DefaultSeed)
	traces := []*trace.Trace{generated[0], hand, generated[1], generated[2]}
	src := func() trace.Source { return trace.NewSliceSource(traces...) }

	n := len(cells())
	alone := make([]string, n)
	for i := range n {
		res, errs := sim.RunCells(src(), cells()[i:i+1])
		if errs[0] != nil {
			t.Fatalf("cell %d alone: %v", i, errs[0])
		}
		if res[0].Executions != len(traces) || res[0].DiskAccesses == 0 {
			t.Fatalf("cell %d alone: %d executions, %d disk accesses", i, res[0].Executions, res[0].DiskAccesses)
		}
		alone[i] = fmt.Sprintf("%+v", res[0])
	}
	for k := range n {
		// Pass k runs cell k first and cell k-1 last.
		order := make([]int, n)
		for j := range order {
			order[j] = (k + j) % n
		}
		cs := cells()
		pass := make([]sim.Cell, n)
		for j, i := range order {
			pass[j] = cs[i]
		}
		res, errs := sim.RunCells(src(), pass)
		for _, j := range []int{0, n - 1} {
			i := order[j]
			if errs[j] != nil {
				t.Fatalf("pass %d, cell %d: %v", k, i, errs[j])
			}
			if got := fmt.Sprintf("%+v", res[j]); got != alone[i] {
				t.Errorf("pass %d: cell %d (%s) at position %d:\n got %s\nalone %s", k, i, pass[j].Policy.Name, j, got, alone[i])
			}
		}
	}
}
