package experiments

import (
	"fmt"

	"pcapsim/internal/classic"
	"pcapsim/internal/core"
	"pcapsim/internal/predictor"
	"pcapsim/internal/sim"
)

// PredictorRow is one policy's across-application averages in the
// all-predictors comparison.
type PredictorRow struct {
	Policy string
	// Hit/Miss/NotPredicted are mean global fractions.
	Hit, Miss, NotPredicted float64
	// Saved is the mean fraction of Base energy eliminated.
	Saved float64
	// WaitPerHour is the mean user-visible spin-up wait accumulated per
	// hour of simulated time (seconds/hour) — the irritation cost of
	// aggressive policies.
	WaitPerHour float64
}

// PolicyExpAverage is Hwang & Wu's exponential-average predictor.
func (s *Suite) PolicyExpAverage() sim.Policy {
	cfg := classic.DefaultExpAverageConfig()
	cfg.Breakeven = s.cfg.Disk.Breakeven
	cfg.WaitWindow = s.waitWindow()
	return sim.Policy{
		Name:       "ExpAvg",
		NewFactory: func() predictor.Factory { return classic.MustNewExpAverage(cfg) },
	}
}

// PolicyLShape is Srivastava et al.'s busy-period predictor.
func (s *Suite) PolicyLShape() sim.Policy {
	cfg := classic.DefaultLShapeConfig()
	return sim.Policy{
		Name:       "LShape",
		NewFactory: func() predictor.Factory { return classic.MustNewLShape(cfg) },
	}
}

// PolicyAdaptiveTimeout is Douglis et al.'s feedback timer.
func (s *Suite) PolicyAdaptiveTimeout() sim.Policy {
	cfg := classic.DefaultAdaptiveTimeoutConfig()
	cfg.Breakeven = s.cfg.Disk.Breakeven
	return sim.Policy{
		Name:       "AdaptTP",
		NewFactory: func() predictor.Factory { return classic.MustNewAdaptiveTimeout(cfg) },
	}
}

// predictorPolicies are the comparison's rows in render order.
func (s *Suite) predictorPolicies() []sim.Policy {
	return []sim.Policy{
		s.PolicyTP(),
		s.PolicyAdaptiveTimeout(),
		s.PolicyExpAverage(),
		s.PolicyLShape(),
		s.PolicyLT(),
		s.PolicyPCAP(core.VariantBase),
		s.PolicyPCAP(core.VariantFH),
		s.PolicyIdeal(),
	}
}

// Predictors compares every shutdown predictor in the repository — the
// paper's three (TP, LT, PCAP with variants) plus the Section 2
// related-work policies — on global accuracy and energy.
func (s *Suite) Predictors() ([]PredictorRow, error) {
	policies := s.predictorPolicies()
	var rows []PredictorRow
	for _, pol := range policies {
		row := PredictorRow{Policy: pol.Name}
		n := 0
		for _, app := range s.Apps() {
			rs, err := s.results(app, s.PolicyBase(), pol)
			if err != nil {
				return nil, err
			}
			base, res := rs[0], rs[1]
			f := res.Global.Fractions()
			row.Hit += f.Hit
			row.Miss += f.Miss
			row.NotPredicted += f.NotPredicted
			if bt := base.Energy.Total(); bt > 0 {
				row.Saved += 1 - res.Energy.Total()/bt
			}
			if hours := res.SimTime.Seconds() / 3600; hours > 0 {
				row.WaitPerHour += res.WaitTime.Seconds() / hours
			}
			n++
		}
		fn := float64(n)
		row.Hit /= fn
		row.Miss /= fn
		row.NotPredicted /= fn
		row.Saved /= fn
		row.WaitPerHour /= fn
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderPredictors renders the comparison as text.
func (s *Suite) RenderPredictors() (string, error) {
	rows, err := s.Predictors()
	if err != nil {
		return "", err
	}
	t := newTable("Policy", "Hit", "Miss", "Not pred", "Saved", "Wait s/h")
	for _, r := range rows {
		t.Row(r.Policy, pct(r.Hit), pct(r.Miss), pct(r.NotPredicted), pct(r.Saved),
			fmt.Sprintf("%.1f", r.WaitPerHour))
	}
	return "All predictors (paper §2 related work + §3 PCAP), global averages\n\n" + t.String(), nil
}
