package experiments

import (
	"fmt"

	"pcapsim/internal/core"
	"pcapsim/internal/predictor"
	"pcapsim/internal/sim"
	"pcapsim/internal/workload"
)

// MultiStateRow compares PCAP's energy with and without the paper's
// future-work extension (Section 7): during the sliding wait-window the
// disk drops into an intermediate low-power idle state immediately, and
// only spins down fully once the window elapses.
type MultiStateRow struct {
	App string
	// SavedPlain / SavedMulti are fractions of Base energy eliminated by
	// PCAP without and with the extension.
	SavedPlain, SavedMulti float64
}

// DefaultLowPowerIdleWatts is the intermediate-state power assumed for the
// extension experiment (head-unloaded active idle, typical for mobile
// drives of the period).
const DefaultLowPowerIdleWatts = 0.55

// lowPowerRunner returns the memoized runner configured with the
// intermediate low-power idle state.
func (s *Suite) lowPowerRunner() (*sim.Runner, error) {
	v, err := s.memo.do("multistate/runner", func() (any, error) {
		cfg := s.cfg
		cfg.Disk = cfg.Disk.WithLowPowerIdle(DefaultLowPowerIdleWatts)
		cfg.LowPowerWaitWindow = true
		return sim.NewRunner(cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*sim.Runner), nil
}

// policyLowPower is PCAP with table reuse, run on lowPowerRunner.
func (s *Suite) policyLowPower() sim.Policy {
	return sim.Policy{
		Name:       "PCAP+lp",
		NewFactory: func() predictor.Factory { return core.MustNew(s.pcapConfig(core.VariantBase)) },
		Reuse:      true,
	}
}

// lowPowerKey is the memo key of app's PCAP+lp cell.
func lowPowerKey(app *workload.App) string { return "multistate/cell/" + app.Name }

// multiStateRow computes one application's row, memoized so matrix
// workers and the driver share the simulation.
func (s *Suite) multiStateRow(app *workload.App) (MultiStateRow, error) {
	v, err := s.memo.do("multistate/"+app.Name, func() (any, error) {
		runner, err := s.lowPowerRunner()
		if err != nil {
			return nil, err
		}
		base, err := s.Run(app, s.PolicyBase())
		if err != nil {
			return nil, err
		}
		plain, err := s.Run(app, s.PolicyPCAP(core.VariantBase))
		if err != nil {
			return nil, err
		}
		multi, err := s.cell(lowPowerKey(app), runner, app, s.policyLowPower())
		if err != nil {
			return nil, err
		}
		bt := base.Energy.Total()
		row := MultiStateRow{App: app.Name}
		if bt > 0 {
			row.SavedPlain = 1 - plain.Energy.Total()/bt
			row.SavedMulti = 1 - multi.Energy.Total()/bt
		}
		return row, nil
	})
	if err != nil {
		return MultiStateRow{}, err
	}
	return v.(MultiStateRow), nil
}

// MultiState runs the extension experiment.
func (s *Suite) MultiState() ([]MultiStateRow, error) {
	var rows []MultiStateRow
	for _, app := range s.Apps() {
		row, err := s.multiStateRow(app)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderMultiState renders the extension experiment as text.
func (s *Suite) RenderMultiState() (string, error) {
	rows, err := s.MultiState()
	if err != nil {
		return "", err
	}
	t := newTable("App", "PCAP saved", "PCAP+low-power saved", "Gain")
	var sumPlain, sumMulti float64
	for _, r := range rows {
		t.Row(r.App, pct(r.SavedPlain), pct(r.SavedMulti), pct(r.SavedMulti-r.SavedPlain))
		sumPlain += r.SavedPlain
		sumMulti += r.SavedMulti
	}
	n := float64(len(rows))
	t.Row("average", pct(sumPlain/n), pct(sumMulti/n), pct((sumMulti-sumPlain)/n))
	return fmt.Sprintf("Multi-state extension (paper §7): low-power idle during the wait-window (%.2f W)\n\n",
		DefaultLowPowerIdleWatts) + t.String(), nil
}
