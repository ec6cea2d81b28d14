package experiments

import (
	"fmt"
	"strings"

	"pcapsim/internal/core"
	"pcapsim/internal/disk"
	"pcapsim/internal/sim"
)

// AccuracyCell is one (application, policy) accuracy bar of Figures 6, 7,
// 9 and 10.
type AccuracyCell struct {
	App    string
	Policy string
	// Counts are the raw outcomes; Frac normalizes to long idle periods.
	Counts sim.Counts
	Frac   sim.Fractions
}

// AccuracyFigure is a whole accuracy figure: apps × policies, plus the
// across-application average (each app weighted equally, as the paper
// averages).
type AccuracyFigure struct {
	Title    string
	Policies []string
	Cells    []AccuracyCell
	Average  map[string]sim.Fractions
}

// accuracyFigure reads every app's cells under pols from the suite's
// table and extracts either the local or the global counts.
func (s *Suite) accuracyFigure(title string, pols []sim.Policy, local bool) (*AccuracyFigure, error) {
	fig := &AccuracyFigure{Title: title, Average: make(map[string]sim.Fractions)}
	for _, p := range pols {
		fig.Policies = append(fig.Policies, p.Name)
	}
	sums := make(map[string]*avgAcc)
	for _, app := range s.Apps() {
		rs, err := s.results(app, pols...)
		if err != nil {
			return nil, err
		}
		for i, p := range pols {
			res := rs[i]
			c := res.Global
			if local {
				c = res.Local
			}
			cell := AccuracyCell{App: app.Name, Policy: p.Name, Counts: c, Frac: c.Fractions()}
			fig.Cells = append(fig.Cells, cell)
			if sums[p.Name] == nil {
				sums[p.Name] = &avgAcc{}
			}
			sums[p.Name].add(cell.Frac)
		}
	}
	for name, a := range sums {
		fig.Average[name] = a.mean()
	}
	return fig, nil
}

// avgAcc averages Fractions across applications.
type avgAcc struct {
	sum sim.Fractions
	n   int
}

func (a *avgAcc) add(f sim.Fractions) {
	a.sum.Hit += f.Hit
	a.sum.HitPrimary += f.HitPrimary
	a.sum.HitBackup += f.HitBackup
	a.sum.Miss += f.Miss
	a.sum.MissPrimary += f.MissPrimary
	a.sum.MissBackup += f.MissBackup
	a.sum.NotPredicted += f.NotPredicted
	a.n++
}

func (a *avgAcc) mean() sim.Fractions {
	if a.n == 0 {
		return sim.Fractions{}
	}
	n := float64(a.n)
	return sim.Fractions{
		Hit:          a.sum.Hit / n,
		HitPrimary:   a.sum.HitPrimary / n,
		HitBackup:    a.sum.HitBackup / n,
		Miss:         a.sum.Miss / n,
		MissPrimary:  a.sum.MissPrimary / n,
		MissBackup:   a.sum.MissBackup / n,
		NotPredicted: a.sum.NotPredicted / n,
	}
}

// fig67Policies are Figures 6 and 7's bars: TP, LT and PCAP.
func (s *Suite) fig67Policies() []sim.Policy {
	return []sim.Policy{s.PolicyTP(), s.PolicyLT(), s.PolicyPCAP(core.VariantBase)}
}

// fig9Policies are Figure 9's bars: the PCAP optimization variants.
func (s *Suite) fig9Policies() []sim.Policy {
	return []sim.Policy{
		s.PolicyPCAP(core.VariantBase), s.PolicyPCAP(core.VariantH),
		s.PolicyPCAP(core.VariantF), s.PolicyPCAP(core.VariantFH),
	}
}

// fig10Policies are Figure 10's bars: table reuse vs discard.
func (s *Suite) fig10Policies() []sim.Policy {
	return []sim.Policy{
		s.PolicyPCAP(core.VariantBase), s.PolicyPCAPa(),
		s.PolicyLT(), s.PolicyLTa(),
	}
}

// Fig6 reproduces Figure 6: local shutdown predictor accuracy for TP, LT
// and PCAP.
func (s *Suite) Fig6() (*AccuracyFigure, error) {
	return s.accuracyFigure("Figure 6: local shutdown predictor", s.fig67Policies(), true)
}

// Fig7 reproduces Figure 7: global shutdown predictor accuracy for TP, LT
// and PCAP.
func (s *Suite) Fig7() (*AccuracyFigure, error) {
	return s.accuracyFigure("Figure 7: global shutdown predictor", s.fig67Policies(), false)
}

// Fig9 reproduces Figure 9: PCAP optimizations (history, file descriptor),
// global predictor, with primary/backup splits.
func (s *Suite) Fig9() (*AccuracyFigure, error) {
	return s.accuracyFigure("Figure 9: predictor optimizations", s.fig9Policies(), false)
}

// Fig10 reproduces Figure 10: prediction-table reuse (PCAP vs PCAPa, LT
// vs LTa), global predictor, with primary/backup splits.
func (s *Suite) Fig10() (*AccuracyFigure, error) {
	return s.accuracyFigure("Figure 10: predictor table reuse", s.fig10Policies(), false)
}

// Render renders an accuracy figure as text, one row per (app, policy),
// with hit/miss split by deciding mechanism.
func (f *AccuracyFigure) Render() string {
	t := newTable("App", "Policy", "Hit", "Hit prim", "Hit bkup", "Miss", "Miss prim", "Miss bkup", "Not pred", "Long periods")
	lastApp := ""
	for _, c := range f.Cells {
		app := c.App
		if app == lastApp {
			app = ""
		} else {
			lastApp = c.App
		}
		t.Row(app, c.Policy, pct(c.Frac.Hit), pct(c.Frac.HitPrimary), pct(c.Frac.HitBackup),
			pct(c.Frac.Miss), pct(c.Frac.MissPrimary), pct(c.Frac.MissBackup),
			pct(c.Frac.NotPredicted), fmt.Sprint(c.Counts.LongPeriods))
	}
	for _, name := range f.Policies {
		a := f.Average[name]
		t.Row("average", name, pct(a.Hit), pct(a.HitPrimary), pct(a.HitBackup),
			pct(a.Miss), pct(a.MissPrimary), pct(a.MissBackup), pct(a.NotPredicted), "")
	}
	return f.Title + "\n\n" + t.String()
}

// EnergyCell is one (application, policy) bar of Figure 8.
type EnergyCell struct {
	App    string
	Policy string
	// Energy is the absolute breakdown in joules.
	Energy disk.EnergyBreakdown
	// BaseTotal is the Base policy's total for the app, the normalization
	// denominator.
	BaseTotal float64
	// Cycles is the number of shutdowns performed.
	Cycles int
}

// Normalized returns the breakdown as fractions of the Base total.
func (c EnergyCell) Normalized() (busy, idleShort, idleLong, powerCycle, total float64) {
	if c.BaseTotal <= 0 {
		return
	}
	b := c.BaseTotal
	return c.Energy.Busy / b, c.Energy.IdleShort / b, c.Energy.IdleLong / b,
		c.Energy.PowerCycle / b, c.Energy.Total() / b
}

// Savings returns the fraction of Base energy eliminated.
func (c EnergyCell) Savings() float64 {
	if c.BaseTotal <= 0 {
		return 0
	}
	return 1 - c.Energy.Total()/c.BaseTotal
}

// EnergyFigure is Figure 8: apps × policies energy distributions.
type EnergyFigure struct {
	Policies []string
	Cells    []EnergyCell
	// AverageSavings is the across-application mean savings per policy.
	AverageSavings map[string]float64
}

// fig8Policies are the paper's five bars, in order.
func (s *Suite) fig8Policies() []sim.Policy {
	return []sim.Policy{
		s.PolicyBase(), s.PolicyIdeal(), s.PolicyTP(), s.PolicyLT(), s.PolicyPCAP(core.VariantBase),
	}
}

// Fig8 reproduces Figure 8: the energy distribution under Base, Ideal,
// TP, LT and PCAP.
func (s *Suite) Fig8() (*EnergyFigure, error) {
	return s.energyFigure(s.fig8Policies())
}

// energyFigure reads every app's cells under pols and normalizes each
// app's bars to its Base total.
func (s *Suite) energyFigure(pols []sim.Policy) (*EnergyFigure, error) {
	fig := &EnergyFigure{AverageSavings: make(map[string]float64)}
	for _, p := range pols {
		fig.Policies = append(fig.Policies, p.Name)
	}
	counts := make(map[string]int)
	for _, app := range s.Apps() {
		rs, err := s.results(app, append([]sim.Policy{s.PolicyBase()}, pols...)...)
		if err != nil {
			return nil, err
		}
		baseTotal := rs[0].Energy.Total()
		for i, p := range pols {
			res := rs[i+1]
			cell := EnergyCell{
				App: app.Name, Policy: p.Name,
				Energy: res.Energy, BaseTotal: baseTotal, Cycles: res.Cycles,
			}
			fig.Cells = append(fig.Cells, cell)
			fig.AverageSavings[p.Name] += cell.Savings()
			counts[p.Name]++
		}
	}
	for _, p := range pols {
		if n := counts[p.Name]; n > 0 {
			fig.AverageSavings[p.Name] /= float64(n)
		}
	}
	return fig, nil
}

// Render renders the energy figure as text.
func (f *EnergyFigure) Render() string {
	t := newTable("App", "Policy", "Busy", "Idle<BE", "Idle>BE", "Pwr cycle", "Total", "Saved", "Shutdowns")
	lastApp := ""
	for _, c := range f.Cells {
		app := c.App
		if app == lastApp {
			app = ""
		} else {
			lastApp = c.App
		}
		busy, is, il, pc, tot := c.Normalized()
		t.Row(app, c.Policy, pct(busy), pct(is), pct(il), pct(pc), pct(tot),
			pct(c.Savings()), fmt.Sprint(c.Cycles))
	}
	var avg strings.Builder
	for _, name := range f.Policies {
		fmt.Fprintf(&avg, "  %s: %s", name, pct(f.AverageSavings[name]))
	}
	return "Figure 8: energy distribution (fractions of Base energy)\n\n" +
		t.String() + "\naverage savings:" + avg.String() + "\n"
}
