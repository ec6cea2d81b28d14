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
// per policy, in order. The source is Reset between policies, so it must
// be resettable (file-backed sources are).
func (s *Suite) ReplayRows(src trace.Source, policies []string) ([]ReplayRow, error) {
	return s.ReplayRowsObserved(src, policies, nil)
}

// ReplayRowsObserved is ReplayRows with a per-policy completion hook:
// observe (when non-nil) receives each row as soon as its policy's run
// finishes, on the calling goroutine — the daemon's per-policy progress
// stream. The returned rows are identical to ReplayRows'.
func (s *Suite) ReplayRowsObserved(src trace.Source, policies []string, observe func(ReplayRow)) ([]ReplayRow, error) {
	if len(policies) == 0 {
		policies = DefaultReplayPolicies
	}
	rows := make([]ReplayRow, 0, len(policies))
	for i, name := range policies {
		pol, ok := s.PolicyByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown policy %q (known: %s)",
				name, strings.Join(replayPolicyNames, ", "))
		}
		if i > 0 {
			if err := src.Reset(); err != nil {
				return nil, fmt.Errorf("experiments: resetting trace source: %w", err)
			}
		}
		res, err := s.runner.RunSource(src, pol)
		if err != nil {
			return nil, fmt.Errorf("experiments: replay under %s: %w", pol.Name, err)
		}
		row := ReplayRow{Policy: pol.Name, Result: res}
		rows = append(rows, row)
		if observe != nil {
			observe(row)
		}
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

// ReplaySource runs every named policy over the source and renders one
// result row per policy — ReplayRows followed by RenderReplayRows.
func (s *Suite) ReplaySource(src trace.Source, policies []string) (string, error) {
	rows, err := s.ReplayRows(src, policies)
	if err != nil {
		return "", err
	}
	return RenderReplayRows(rows), nil
}

// ReplayOptions tune how ReplayFileOpts decodes the trace before it
// reaches the simulator.
type ReplayOptions struct {
	// Workers selects parallel block decode for v2 files (see
	// trace.OpenOptions.Workers): 0 is the sequential reference path,
	// < 0 means one worker per CPU.
	Workers int
	// Pred restricts the replay to matching events. Index-bearing v2
	// files skip non-matching blocks without reading them; the stream
	// is always filtered exactly, so every format and decode path
	// simulates the same events.
	Pred trace.Predicate
}

// ReplayFile opens a trace file (v2 columnar or text — the format is
// sniffed from the leading bytes) and replays it under the
// named policies; see ReplaySource.
func (s *Suite) ReplayFile(path string, policies []string) (string, error) {
	return s.ReplayFileOpts(path, policies, ReplayOptions{})
}

// ReplayFileOpts is ReplayFile with decode options: parallel block
// decode and predicate pushdown. The zero options replay exactly like
// ReplayFile.
func (s *Suite) ReplayFileOpts(path string, policies []string, opts ReplayOptions) (string, error) {
	fs, err := trace.OpenTraceFileOpts(path, trace.OpenOptions{Workers: opts.Workers, Pred: opts.Pred})
	if err != nil {
		return "", err
	}
	defer fs.Close()
	out, err := s.ReplaySource(fs, policies)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("replay %s\n\n%s", path, out), nil
}
