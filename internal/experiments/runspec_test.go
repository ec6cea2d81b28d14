package experiments

import (
	"context"
	"errors"
	"testing"

	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// TestValidateRejectsUnreadFields: a field the spec's kind never reads
// fails Validate with an UnreadFieldError naming it, and the same spec
// without that field validates.
func TestValidateRejectsUnreadFields(t *testing.T) {
	eval := RunSpec{Kind: KindEval, App: "nedit"}
	replay := RunSpec{Kind: KindReplay, Trace: "t"}
	fleetRun := RunSpec{Kind: KindFleet, Machines: 4}
	for _, tc := range []struct {
		base  RunSpec
		set   func(*RunSpec)
		field string
	}{
		{replay, func(s *RunSpec) { s.Scale = 2 }, "scale"},
		{fleetRun, func(s *RunSpec) { s.Scale = 2 }, "scale"},
		{fleetRun, func(s *RunSpec) { s.Execs = 3 }, "execs"},
		{fleetRun, func(s *RunSpec) { s.App = "nedit" }, "app"},
		{fleetRun, func(s *RunSpec) { s.ToSec = 5 }, "to_sec"},
		{eval, func(s *RunSpec) { s.Mix = "nedit:1" }, "mix"},
		{eval, func(s *RunSpec) { s.Machines = 4 }, "machines"},
		{eval, func(s *RunSpec) { s.DurationSec = 60 }, "duration_sec"},
		{eval, func(s *RunSpec) { s.FromSec = 1 }, "from_sec"},
		{eval, func(s *RunSpec) { s.Pid = 3 }, "pid"},
		{eval, func(s *RunSpec) { s.PCFrom = 16 }, "pc_from"},
		{eval, func(s *RunSpec) { s.Workers = 2 }, "workers"},
		{eval, func(s *RunSpec) { s.Trace = "t" }, "trace"},
		{replay, func(s *RunSpec) { s.Mix = "nedit:1" }, "mix"},
		{RunSpec{Kind: KindFleet, Machines: 4, Trace: "t"}, func(s *RunSpec) { s.Mix = "nedit:1" }, "mix"},
	} {
		if err := tc.base.Validate(); err != nil {
			t.Fatalf("%s base spec: %v", tc.base.Kind, err)
		}
		spec := tc.base
		tc.set(&spec)
		var unread *UnreadFieldError
		if err := spec.Validate(); !errors.As(err, &unread) || unread.Kind != spec.Kind || unread.Field != tc.field {
			t.Errorf("%s spec with %s: Validate = %v, want an UnreadFieldError for it", spec.Kind, tc.field, err)
		}
	}
	// A fleet that replays a trace reads its decode workers and predicate.
	traced := RunSpec{Kind: KindFleet, Machines: 4, Trace: "t", Workers: 2, Pid: 3, FromSec: 1}
	if err := traced.Validate(); err != nil {
		t.Errorf("fleet over a trace with a predicate: %v", err)
	}
}

// TestMeterForwardsPinnedTrace: the meter lends the pinned traces of the
// capped eval source it wraps, so a retaining suite's retained executions
// serve metered runs.
func TestMeterForwardsPinnedTrace(t *testing.T) {
	suite, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	suite.RetainPrepared()
	app, _ := workload.ByName("nedit")
	var all []*trace.Trace
	for src := suite.SourceFor(app); ; {
		if _, _, ok := src.NextExec(); !ok {
			break
		}
		all = append(all, trace.PinnedTrace(src))
	}
	var counted Progress
	m := &meter{
		Source: trace.LimitExecs(suite.SourceFor(app), 2), ctx: context.Background(),
		progress: func(p Progress) { counted.Execs += p.Execs }, policies: 1,
	}
	n := 0
	for ; ; n++ {
		if _, _, ok := m.NextExec(); !ok {
			break
		}
		if p := trace.PinnedTrace(m); p != all[n] || &p.Events[0] != &m.ExecEvents()[0] {
			t.Fatalf("execution %d: meter lends pinned trace %p, want the suite's %p", n, p, all[n])
		}
	}
	if n != 2 || counted.Execs != 2 {
		t.Errorf("metered %d executions and counted %d, want 2", n, counted.Execs)
	}
}

// TestValidateFleetBounds: a fleet's machine count and session length are
// bounded by MaxFleetMachines and MaxFleetDurationSec; the bounds
// themselves and the sizes tests and benchmarks send validate.
func TestValidateFleetBounds(t *testing.T) {
	for _, tc := range []struct {
		spec RunSpec
		ok   bool
	}{
		{RunSpec{Kind: KindFleet, Machines: 20_000, DurationSec: 1800}, true},
		{RunSpec{Kind: KindFleet, Machines: MaxFleetMachines}, true},
		{RunSpec{Kind: KindFleet, Machines: 1, DurationSec: MaxFleetDurationSec}, true},
		{RunSpec{Kind: KindFleet, Machines: MaxFleetMachines + 1}, false},
		{RunSpec{Kind: KindFleet, Machines: 2_000_000_000}, false},
		{RunSpec{Kind: KindFleet, Machines: 1, DurationSec: MaxFleetDurationSec + 0.5}, false},
		{RunSpec{Kind: KindFleet, Machines: 1, DurationSec: 1e13}, false},
	} {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("machines %d, duration %g s: Validate = %v, want ok=%v",
				tc.spec.Machines, tc.spec.DurationSec, err, tc.ok)
		}
	}
}

// TestValidateRejectsRepeatedPolicies: a policy listed twice, in any
// case, is rejected for every kind, so a run has at most one cell per
// known policy; distinct names validate.
func TestValidateRejectsRepeatedPolicies(t *testing.T) {
	for _, tc := range []struct {
		spec RunSpec
		ok   bool
	}{
		{RunSpec{Kind: KindFleet, Machines: 4, Policies: ReplayPolicyNames()}, true},
		{RunSpec{Kind: KindFleet, Machines: 4, Policies: []string{"pcap", "pcap"}}, false},
		{RunSpec{Kind: KindFleet, Machines: MaxFleetMachines, Policies: []string{"base", "tp", "PCAP", "pcap"}}, false},
		{RunSpec{Kind: KindEval, App: "nedit", Policies: []string{"Base", "base"}}, false},
		{RunSpec{Kind: KindReplay, Trace: "t", Policies: []string{"ideal", "tp", "ideal"}}, false},
	} {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s run, policies %v: Validate = %v, want ok=%v", tc.spec.Kind, tc.spec.Policies, err, tc.ok)
		}
	}
}

// TestRunRejectsOverBoundFleet: Run validates before it builds anything,
// so an over-bound fleet fails with the validation error. The context is
// already canceled, so a spec that slipped past validation would stop at
// its machines' first execution instead of simulating them.
func TestRunRejectsOverBoundFleet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range []RunSpec{
		{Kind: KindFleet, Machines: MaxFleetMachines + 1, Policies: []string{"base"}},
		{Kind: KindFleet, Machines: 1, DurationSec: MaxFleetDurationSec + 1, Policies: []string{"base"}},
	} {
		want := spec.Validate()
		if want == nil {
			t.Fatalf("spec %+v validates", spec)
		}
		if _, err := spec.Run(ctx, RunEnv{}); err == nil || err.Error() != want.Error() {
			t.Errorf("Run = %v, want the validation error %v", err, want)
		}
	}
}
