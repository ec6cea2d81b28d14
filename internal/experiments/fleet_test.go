package experiments

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"pcapsim/internal/disk"
	"pcapsim/internal/fleet"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// TestFleetOfOneEqualsRunApp is the fleet engine's ground truth: a fleet
// of exactly one machine running one app's full execution sequence must
// report, under every policy of its one pass, exactly what
// Runner.RunApp over the same generated traces produces — every Result
// field the machine's run determines, floats compared exactly — for
// every app and every suite policy. The fleet layers (mix source, shard
// run loop, RunCells pass, fold) may add nothing and lose nothing.
func TestFleetOfOneEqualsRunApp(t *testing.T) {
	apps := workload.Apps()
	policies := ReplayPolicyNames()
	if testing.Short() {
		apps = apps[3:5] // xemacs, nedit: the small workloads
		policies = []string{"base", "tp", "lt", "pcap", "ideal"}
	}
	runner := sim.MustNewRunner(sim.DefaultConfig())
	suite := NewDefaultSuite()
	for _, app := range apps {
		f, err := fleet.New(fleet.Config{
			Machines:   1,
			Seed:       DefaultSeed,
			Executions: app.Executions,
			Mix:        []fleet.AppShare{{Name: app.Name, Weight: 1}},
			Devices:    []fleet.DeviceShare{{Device: disk.FujitsuMHF2043AT(), Weight: 1}},
			Base:       sim.DefaultConfig(),
			Policy:     FleetPolicies(policies, sim.DefaultConfig()),
			Workers:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(policies) {
			t.Fatalf("%s: %d results, want one per policy (%d)", app.Name, len(got), len(policies))
		}
		// The reference runs use the machine's derived workload seed: the
		// fleet machine and RunApp must consume the same generated traces.
		traces := app.Traces(f.Spec(0).WorkloadSeed)
		for i, policy := range policies {
			t.Run(app.Name+"/"+policy, func(t *testing.T) {
				pol, ok := suite.PolicyByName(policy)
				if !ok {
					t.Fatalf("unknown policy %q", policy)
				}
				want, err := runner.RunApp(traces, pol)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := fmt.Sprintf("%+v", oneMachineView(got[i])), fmt.Sprintf("%+v", appResultView(want)); g != w {
					t.Errorf("fleet-of-one diverges from RunApp:\n got %s\nwant %s", g, w)
				}
			})
		}
	}
}

// machineView is what a one-machine fleet's Result reports of its
// machine's run.
type machineView struct {
	Policy                                              string
	Executions, TotalIOs, DiskAccesses, Cycles, Wakeups int64
	Local, Global                                       sim.Counts
	Energy                                              disk.EnergyBreakdown
	WaitTime, MachineTime                               trace.Time
	DeviceEnergyJ                                       float64
}

func oneMachineView(r *fleet.Result) machineView {
	return machineView{
		Policy: r.Policy, Executions: r.Executions, TotalIOs: r.TotalIOs,
		DiskAccesses: r.DiskAccesses, Cycles: r.Cycles, Wakeups: r.Wakeups,
		Local: r.Local, Global: r.Global, Energy: r.Energy,
		WaitTime: r.WaitTime, MachineTime: r.MachineTime,
		DeviceEnergyJ: r.DeviceUse[0].EnergyJ,
	}
}

func appResultView(r *sim.AppResult) machineView {
	return machineView{
		Policy: r.Policy, Executions: int64(r.Executions), TotalIOs: int64(r.TotalIOs),
		DiskAccesses: int64(r.DiskAccesses), Cycles: int64(r.Cycles), Wakeups: int64(r.Wakeups),
		Local: r.Local, Global: r.Global, Energy: r.Energy,
		WaitTime: r.WaitTime, MachineTime: r.SimTime,
		DeviceEnergyJ: r.Energy.Total(),
	}
}

// TestFleetPassEqualsOnePolicyFleets: a P-policy fleet is one pass per
// machine with a cell per policy, and must equal P one-policy fleets over
// the same population — every policy's Result %+v-identical and its
// Render byte-identical — at 1 and 2 workers, on synthetic and on
// replayed workloads.
func TestFleetPassEqualsOnePolicyFleets(t *testing.T) {
	policies := []string{"base", "tp", "lt", "pcap", "ideal"}
	var recorded []*trace.Trace
	for _, name := range []string{"xemacs", "nedit"} {
		app, _ := workload.ByName(name)
		recorded = append(recorded, app.Trace(DefaultSeed, 0), app.Trace(DefaultSeed, 1))
	}
	for _, replay := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			cfg := fleet.Config{Machines: 16, Seed: DefaultSeed, Session: 300 * trace.Second, Workers: workers}
			if replay {
				cfg.Replay = recorded
			}
			pass, err := FleetResults(cfg, policies)
			if err != nil {
				t.Fatal(err)
			}
			if len(pass) != len(policies) {
				t.Fatalf("replay=%v: %d results for %d policies", replay, len(pass), len(policies))
			}
			for i, name := range policies {
				solo, err := FleetResults(cfg, []string{name})
				if err != nil {
					t.Fatal(err)
				}
				if g, w := fmt.Sprintf("%+v", *pass[i]), fmt.Sprintf("%+v", *solo[0]); g != w {
					t.Errorf("replay=%v workers=%d %s: pass result differs from a one-policy fleet:\n got %s\nwant %s",
						replay, workers, name, g, w)
				}
				if g, w := pass[i].Render(), solo[0].Render(); g != w {
					t.Errorf("replay=%v workers=%d %s: render differs:\n%s\nvs\n%s", replay, workers, name, g, w)
				}
			}
		}
	}
}

// TestFleetPollsInterruptOncePerExecution: a three-policy fleet reads
// each machine's session once, so Config.Interrupt — polled by the
// session source before every execution and once more at its end — is
// polled executions + machines times, not that times the policy count.
func TestFleetPollsInterruptOncePerExecution(t *testing.T) {
	var polls atomic.Int64
	cfg := fleet.Config{
		Machines: 12, Seed: DefaultSeed, Executions: 3, Workers: 2,
		Interrupt: func() error { polls.Add(1); return nil },
	}
	results, err := FleetResults(cfg, []string{"base", "tp", "pcap"})
	if err != nil {
		t.Fatal(err)
	}
	if want := results[0].Executions + int64(results[0].Machines); polls.Load() != want {
		t.Errorf("Interrupt polled %d times, want %d (once per execution and once per session end)", polls.Load(), want)
	}
}

// TestFleetDeterminism checks the fleet's cross-worker contract: the
// rendered aggregate report of a heterogeneous, staggered fleet is
// byte-identical at 1, 4 and 8 workers.
func TestFleetDeterminism(t *testing.T) {
	machines := 120
	if testing.Short() {
		machines = 40
	}
	render := func(workers int) string {
		f, err := fleet.New(fleet.Config{
			Machines: machines,
			Seed:     DefaultSeed,
			Session:  600 * 1e6, // 10 virtual minutes
			Policy:   FleetPolicies([]string{"pcap"}, sim.DefaultConfig()),
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Render()
	}
	want := render(1)
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != want {
			t.Errorf("fleet report differs between 1 and %d workers:\n%d workers:\n%s\n1 worker:\n%s",
				workers, workers, got, want)
		}
	}
}

// fleetGoldenPath is the fleet comparison report of fleetGoldenReport,
// byte for byte.
const fleetGoldenPath = "testdata/fleet.golden"

// fleetGoldenReport renders a 48-machine heterogeneous fleet under base,
// tp and pcap through FleetResults and RenderFleetComparison, followed by
// a 24-machine pcap fleet replaying recorded xemacs and nedit executions.
func fleetGoldenReport(t *testing.T, workers int) string {
	t.Helper()
	cfg := fleet.Config{
		Machines: 48,
		Seed:     DefaultSeed,
		Session:  600 * trace.Second,
		Workers:  workers,
	}
	policies := []string{"base", "tp", "pcap"}
	results, err := FleetResults(cfg, policies)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFleetComparison(policies, results)

	var recorded []*trace.Trace
	for _, name := range []string{"xemacs", "nedit"} {
		app, _ := workload.ByName(name)
		recorded = append(recorded, app.Trace(DefaultSeed, 0), app.Trace(DefaultSeed, 1))
	}
	cfg.Machines = 24
	cfg.Replay = recorded
	results, err = FleetResults(cfg, []string{"pcap"})
	if err != nil {
		t.Fatal(err)
	}
	return out + "\n" + results[0].Render()
}

// TestFleetGolden pins the fleet report: the engine must reproduce the
// committed output byte for byte at 1, 2 and 8 workers.
func TestFleetGolden(t *testing.T) {
	if *updateGolden {
		got := fleetGoldenReport(t, 1)
		if err := os.WriteFile(fleetGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", fleetGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(fleetGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/experiments -run TestFleetGolden -update)", err)
	}
	for _, workers := range []int{1, 2, 8} {
		if got := fleetGoldenReport(t, workers); got != string(want) {
			t.Errorf("%d workers: fleet report diverged from %s\n%s",
				workers, fleetGoldenPath, diffPosition(string(want), got))
		}
	}
}
