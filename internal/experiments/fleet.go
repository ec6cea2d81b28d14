package experiments

import (
	"fmt"
	"strings"

	"pcapsim/internal/disk"
	"pcapsim/internal/fleet"
	"pcapsim/internal/sim"
)

// Fleet-scale evaluation: the per-app experiments above reproduce the
// paper's single-machine figures; the fleet row asks what the same
// policies do across a whole machine population — heterogeneous devices,
// per-machine app mixes, staggered sessions — using internal/fleet's
// engine. It is rendered by the CLI's -fleet mode and is not
// part of ExperimentNames: the golden suite output stays pinned to the
// paper's figures.

// FleetPolicies resolves replay policy names ("base", "tp", "pcap", …)
// to a device-parameterized fleet policy factory. Predictor thresholds
// (breakeven, wait window) are derived per device from one suite on that
// device, the way the device-sweep experiment rebuilds its per-device
// sub-suites, so a heterogeneous fleet runs each machine's policies
// calibrated to its own drive. An unknown name fails the first device.
func FleetPolicies(names []string, base sim.Config) func(disk.Params) ([]sim.Policy, error) {
	if base == (sim.Config{}) {
		base = sim.DefaultConfig()
	}
	return func(dev disk.Params) ([]sim.Policy, error) {
		cfg := base
		cfg.Disk = dev
		ds, err := NewSuite(DefaultSeed, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet policies for %q: %w", dev.Name, err)
		}
		return ds.policiesByName(names)
	}
}

// FleetResults runs every named policy over one fleet — each machine's
// session is one pass with a cell per policy, so the policies see
// identical machine populations and workloads — and returns one result
// per policy, in order. Config fields other than Policy pass through
// untouched, so callers wire Interrupt (cancellation) straight into the
// engine.
func FleetResults(cfg fleet.Config, policyNames []string) ([]*fleet.Result, error) {
	cfg.Policy = FleetPolicies(policyNames, cfg.Base)
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	return f.Run()
}

// RenderFleetComparison renders per-policy fleet results as each
// aggregate report followed by a cross-policy summary table. Savings are
// relative to the always-on Base fleet when it is among the policies,
// else to the first. policyNames must be the list the results were run
// under, in the same order.
func RenderFleetComparison(policyNames []string, results []*fleet.Result) string {
	var b strings.Builder
	for _, res := range results {
		b.WriteString(res.Render())
		b.WriteString("\n")
	}
	baseIdx := 0
	for i, name := range policyNames {
		if strings.EqualFold(name, "base") {
			baseIdx = i
			break
		}
	}
	baseEnergy := results[baseIdx].Energy.Total()
	b.WriteString("policy       energy (J)    saved   shutdowns    hit%    wakeups   wait (s)\n")
	for _, res := range results {
		saved := 0.0
		if baseEnergy > 0 {
			saved = 100 * (1 - res.Energy.Total()/baseEnergy)
		}
		hitPct := 0.0
		if sd := res.Global.Shutdowns(); sd > 0 {
			hitPct = 100 * float64(res.Global.Hits()) / float64(sd)
		}
		fmt.Fprintf(&b, "%-10s %12.1f %7.1f%% %11d %6.1f%% %10d %10.1f\n",
			res.Policy, res.Energy.Total(), saved,
			res.Global.Shutdowns(), hitPct, res.Wakeups, res.WaitTime.Seconds())
	}
	return b.String()
}
