package experiments

import (
	"fmt"

	"pcapsim/internal/core"
	"pcapsim/internal/predictor"
	"pcapsim/internal/sim"
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

// policyLowPower is PCAP with table reuse, run on the low-power runner.
func (s *Suite) policyLowPower() sim.Policy {
	return sim.Policy{
		Name:       "PCAP+lp",
		NewFactory: func() predictor.Factory { return core.MustNew(s.pcapConfig(core.VariantBase)) },
		Reuse:      true,
	}
}

// planMultiState plans the extension experiment: Base and PCAP on the
// suite's runner and PCAP+lp on a runner with the intermediate low-power
// idle state, all in the suite's table, and one multistate/<app> task
// per row.
func (s *Suite) planMultiState(l *taskList) error {
	l.grid(s, []sim.Policy{s.PolicyBase(), s.PolicyPCAP(core.VariantBase)})
	cfg := s.cfg
	cfg.Disk = cfg.Disk.WithLowPowerIdle(DefaultLowPowerIdleWatts)
	cfg.LowPowerWaitWindow = true
	lp, err := sim.NewRunner(cfg)
	if err != nil {
		return err
	}
	for _, app := range s.Apps() {
		// Base and PCAP fail their own run/ tasks; the row's task reads
		// its own cell.
		if l.add("multistate/"+app.Name, func() error {
			_, err := s.results(app, s.policyLowPower())
			return err
		}) {
			l.cells = append(l.cells, listCell{s, app, sim.Cell{Runner: lp, Policy: s.policyLowPower()}})
		}
	}
	return nil
}

// MultiState derives the extension experiment's rows, one per
// application, from each application's three cells.
func (s *Suite) MultiState() ([]MultiStateRow, error) {
	var rows []MultiStateRow
	for _, app := range s.Apps() {
		res, err := s.results(app, s.PolicyBase(), s.PolicyPCAP(core.VariantBase), s.policyLowPower())
		if err != nil {
			return nil, err
		}
		row := MultiStateRow{App: app.Name}
		if bt := res[0].Energy.Total(); bt > 0 {
			row.SavedPlain = 1 - res[1].Energy.Total()/bt
			row.SavedMulti = 1 - res[2].Energy.Total()/bt
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
