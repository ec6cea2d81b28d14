package experiments

import (
	"fmt"
	"strings"

	"pcapsim/internal/core"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
)

// Trace replay: run recorded trace files (either on-disk format — v2
// columnar or text) through the simulator under a chosen set of
// policies, without going through the synthetic workload generator. This
// is the path external traces take into the simulator.

// replayPolicyNames lists the policy names PolicyByName accepts, in
// render order.
var replayPolicyNames = []string{
	"base", "tp", "lt", "lta", "pcap", "pcaph", "pcapf", "pcapfh", "pcapa", "ideal",
}

// ReplayPolicyNames returns the policy names accepted by PolicyByName.
func ReplayPolicyNames() []string {
	return append([]string(nil), replayPolicyNames...)
}

// PolicyByName resolves a case-insensitive policy name ("base", "tp",
// "lt", "lta", "pcap", "pcaph", "pcapf", "pcapfh", "pcapa", "ideal") to
// the suite's policy of that name.
func (s *Suite) PolicyByName(name string) (sim.Policy, bool) {
	switch strings.ToLower(name) {
	case "base":
		return s.PolicyBase(), true
	case "tp":
		return s.PolicyTP(), true
	case "lt":
		return s.PolicyLT(), true
	case "lta":
		return s.PolicyLTa(), true
	case "pcap":
		return s.PolicyPCAP(core.VariantBase), true
	case "pcaph":
		return s.PolicyPCAP(core.VariantH), true
	case "pcapf":
		return s.PolicyPCAP(core.VariantF), true
	case "pcapfh":
		return s.PolicyPCAP(core.VariantFH), true
	case "pcapa":
		return s.PolicyPCAPa(), true
	case "ideal":
		return s.PolicyIdeal(), true
	default:
		return sim.Policy{}, false
	}
}

// DefaultReplayPolicies is the policy list replay runs use when none is
// given: the paper's base/timeout/PCAP/oracle comparison.
var DefaultReplayPolicies = []string{"base", "tp", "pcap", "ideal"}

// ReplayRow is one policy's outcome in a replay run: the resolved policy
// name and the full simulation result. Rows are data, not presentation —
// RenderReplayRows turns a row slice into the comparison table, and the
// simulation daemon accounts energy and event totals straight off the
// Result fields.
type ReplayRow struct {
	Policy string
	Result *sim.AppResult
}

// ReplayRows runs every named policy over the source and returns one row
// per policy, in order. It is one sim.RunCells pass with a cell per
// policy, so each execution is read and prepared once for all of them.
// Every name is resolved before the source is read.
func (s *Suite) ReplayRows(src trace.Source, policies []string) ([]ReplayRow, error) {
	if len(policies) == 0 {
		policies = DefaultReplayPolicies
	}
	cells := make([]sim.Cell, len(policies))
	for i, name := range policies {
		pol, ok := s.PolicyByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown policy %q (known: %s)",
				name, strings.Join(replayPolicyNames, ", "))
		}
		cells[i] = sim.Cell{Runner: s.runner, Policy: pol}
	}
	res, errs := sim.RunCells(src, cells)
	rows := make([]ReplayRow, len(cells))
	for i, c := range cells {
		if errs[i] != nil {
			return nil, fmt.Errorf("experiments: replay under %s: %w", c.Policy.Name, errs[i])
		}
		rows[i] = ReplayRow{Policy: c.Policy.Name, Result: res[i]}
	}
	return rows, nil
}

// RenderReplayRows renders replay rows as the policy comparison table.
// Energy savings are reported against the first row's energy, so leading
// with "base" gives the paper's savings-versus-always-on numbers.
func RenderReplayRows(rows []ReplayRow) string {
	tbl := newTable("Policy", "Execs", "I/Os", "Disk", "Energy (J)", "Savings", "Shutdowns", "Wakeups", "Wait (s)")
	var baseline float64
	for i, row := range rows {
		res := row.Result
		total := res.Energy.Total()
		savings := "—"
		if i == 0 {
			baseline = total
		} else if baseline > 0 {
			savings = pct(1 - total/baseline)
		}
		tbl.Row(row.Policy,
			fmt.Sprintf("%d", res.Executions),
			fmt.Sprintf("%d", res.TotalIOs),
			fmt.Sprintf("%d", res.DiskAccesses),
			fmt.Sprintf("%.1f", total),
			savings,
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%d", res.Wakeups),
			fmt.Sprintf("%.1f", res.WaitTime.Seconds()))
	}
	return tbl.String()
}
