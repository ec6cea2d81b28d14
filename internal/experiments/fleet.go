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

// FleetPolicy resolves a replay policy name ("base", "tp", "pcap", …) to
// a device-parameterized fleet policy factory. Predictor thresholds
// (breakeven, wait window) are derived per device, the same way the
// device-sweep experiment rebuilds its per-device sub-suites, so a
// heterogeneous fleet runs each machine's policy calibrated to its own
// drive.
func FleetPolicy(name string, base sim.Config) (func(disk.Params) (sim.Policy, error), error) {
	if base == (sim.Config{}) {
		base = sim.DefaultConfig()
	}
	// Validate the name once, up front, against the base device.
	probe, err := NewSuite(DefaultSeed, base)
	if err != nil {
		return nil, err
	}
	if _, ok := probe.PolicyByName(name); !ok {
		return nil, fmt.Errorf("experiments: unknown policy %q (have %s)",
			name, strings.Join(ReplayPolicyNames(), ","))
	}
	return func(dev disk.Params) (sim.Policy, error) {
		cfg := base
		cfg.Disk = dev
		ds, err := NewSuite(DefaultSeed, cfg)
		if err != nil {
			return sim.Policy{}, fmt.Errorf("experiments: fleet policy %q for %q: %w", name, dev.Name, err)
		}
		pol, _ := ds.PolicyByName(name)
		return pol, nil
	}, nil
}

// FleetResults runs one fleet per named policy over an identical machine
// population — the same seed fixes every machine's arrival, device and
// workload, so the runs differ only in policy — and returns one result
// per policy, in order. Config fields other than Policy pass through
// untouched, so callers wire Observe (per-machine accounting) and
// Interrupt (cancellation) straight into the engine.
func FleetResults(cfg fleet.Config, policyNames []string) ([]*fleet.Result, error) {
	if len(policyNames) == 0 {
		return nil, fmt.Errorf("experiments: fleet comparison needs at least one policy")
	}
	results := make([]*fleet.Result, 0, len(policyNames))
	for _, name := range policyNames {
		pf, err := FleetPolicy(name, cfg.Base)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Policy = pf
		f, err := fleet.New(c)
		if err != nil {
			return nil, err
		}
		res, err := f.Run()
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
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
