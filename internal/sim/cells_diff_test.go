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
	pinned := experiments.NewDefaultSuite()
	onDemand := experiments.NewDefaultSuite()
	onDemand.SetOnDemand(true)
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
	neditTraces := pinned.Traces(nedit)

	sources := []struct {
		name  string
		execs int
		open  func() trace.Source
	}{
		{"pinned/nedit", nedit.Executions, func() trace.Source { return pinned.SourceFor(nedit) }},
		{"silent", 3, func() trace.Source { return trace.NewSliceSource(neditTraces[0], silent, neditTraces[1]) }},
		{"ondemand/nedit", nedit.Executions, func() trace.Source { return onDemand.SourceFor(nedit) }},
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
			cells := diffCells(t, pinned, short)
			got, errs := sim.RunCells(countingSource{sc.open(), &pulled}, cells)
			if pulled != sc.execs {
				t.Errorf("shared pass pulled %d executions, want %d", pulled, sc.execs)
			}
			for i, c := range diffCells(t, pinned, short) {
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
