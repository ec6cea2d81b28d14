package experiments

import (
	"fmt"
	"os"
	"testing"

	"pcapsim/internal/disk"
	"pcapsim/internal/fleet"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// fleetOfOne builds a 1-machine fleet pinned to one app on the paper's
// drive, running the app's full recorded execution count.
func fleetOfOne(t *testing.T, app *workload.App, policy string) *fleet.Fleet {
	t.Helper()
	pf, err := FleetPolicy(policy, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(fleet.Config{
		Machines:   1,
		Seed:       DefaultSeed,
		Executions: app.Executions,
		Mix:        []fleet.AppShare{{Name: app.Name, Weight: 1}},
		Devices:    []fleet.DeviceShare{{Device: disk.FujitsuMHF2043AT(), Weight: 1}},
		Base:       sim.DefaultConfig(),
		Policy:     pf,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetOfOneEqualsRunApp is the fleet engine's ground truth: a fleet
// of exactly one machine running one app's full execution sequence must
// produce an AppResult identical — %+v-identical, floats included — to
// Runner.RunApp over the same generated traces, for every app and every
// suite policy. The fleet layers (mix source, shard run loop, fold) may
// add nothing and lose nothing.
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
		for _, policy := range policies {
			t.Run(app.Name+"/"+policy, func(t *testing.T) {
				f := fleetOfOne(t, app, policy)
				var got sim.AppResult
				cfg := f.Config()
				cfg.Observe = func(id int, res *sim.AppResult) { got = *res }
				f, err := fleet.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Run(); err != nil {
					t.Fatal(err)
				}

				// The reference run uses the machine's derived workload
				// seed: the fleet machine and RunApp must consume the same
				// generated traces.
				seed := f.Spec(0).WorkloadSeed
				pol, ok := suite.PolicyByName(policy)
				if !ok {
					t.Fatalf("unknown policy %q", policy)
				}
				want, err := runner.RunApp(app.Traces(seed), pol)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", *want); g != w {
					t.Errorf("fleet-of-one diverges from RunApp:\n got %s\nwant %s", g, w)
				}
			})
		}
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
	pf, err := FleetPolicy("pcap", sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		f, err := fleet.New(fleet.Config{
			Machines: machines,
			Seed:     DefaultSeed,
			Session:  600 * 1e6, // 10 virtual minutes
			Policy:   pf,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
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
