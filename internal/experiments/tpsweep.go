package experiments

import (
	"fmt"

	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
)

// TPSweepRow is one timeout value's across-application averages,
// reproducing the paper's Section 6.3 discussion of timeout choice (the
// 5.43 s breakeven timeout saves more energy but mispredicts more).
type TPSweepRow struct {
	Timeout trace.Time
	// AvgSavings is the mean fraction of Base energy eliminated.
	AvgSavings float64
	// AvgHit / AvgMiss are mean global prediction fractions.
	AvgHit, AvgMiss float64
}

// TPSweepTimeouts are the swept timer values (seconds); they bracket the
// paper's 5.43 s and 10 s points.
var TPSweepTimeouts = []float64{1, 2, 5.43, 10, 20, 30, 60}

// tpSweepPolicy is the sweep's policy for one timer value; the plan and
// the renderer name its cell alike. The paper's own timer value is
// PolicyTP, so its cell is simulated once.
func (s *Suite) tpSweepPolicy(sec float64) sim.Policy {
	if timeout := trace.FromSeconds(sec); timeout != tpTimeout {
		return s.PolicyTPWith(fmt.Sprintf("TP%.4gs", sec), timeout)
	}
	return s.PolicyTP()
}

// tpSweepPolicies are all swept timeout policies in sweep order.
func (s *Suite) tpSweepPolicies() []sim.Policy {
	pols := make([]sim.Policy, len(TPSweepTimeouts))
	for i, sec := range TPSweepTimeouts {
		pols[i] = s.tpSweepPolicy(sec)
	}
	return pols
}

// TPSweep evaluates the timeout predictor across timer values.
func (s *Suite) TPSweep() ([]TPSweepRow, error) {
	var rows []TPSweepRow
	for _, sec := range TPSweepTimeouts {
		pol := s.tpSweepPolicy(sec)
		row := TPSweepRow{Timeout: trace.FromSeconds(sec)}
		n := 0
		for _, app := range s.Apps() {
			rs, err := s.results(app, s.PolicyBase(), pol)
			if err != nil {
				return nil, err
			}
			base, res := rs[0], rs[1]
			if bt := base.Energy.Total(); bt > 0 {
				row.AvgSavings += 1 - res.Energy.Total()/bt
			}
			f := res.Global.Fractions()
			row.AvgHit += f.Hit
			row.AvgMiss += f.Miss
			n++
		}
		row.AvgSavings /= float64(n)
		row.AvgHit /= float64(n)
		row.AvgMiss /= float64(n)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTPSweep renders the sweep as text.
func (s *Suite) RenderTPSweep() (string, error) {
	rows, err := s.TPSweep()
	if err != nil {
		return "", err
	}
	t := newTable("Timeout", "Avg savings", "Avg hit", "Avg miss")
	for _, r := range rows {
		t.Row(fmt.Sprintf("%.4g s", r.Timeout.Seconds()),
			pct(r.AvgSavings), pct(r.AvgHit), pct(r.AvgMiss))
	}
	return "Timeout sweep (Section 6.3): energy vs mispredictions\n\n" + t.String(), nil
}
