package hypothesis

import (
	"fmt"
	"math"
	"sort"

	"pcapsim/internal/experiments"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// defaultTopN bounds the attribution table when the spec does not say.
const defaultTopN = 5

// CounterfactualResult reports one flip replay: the simulation re-run
// with the selected decision inverted, compared against what the
// attribution table predicted for it.
type CounterfactualResult struct {
	// Record is the flipped decision as originally made.
	Record trace.DecisionRecord `json:"record"`
	// PredictedEnergyDelta is the record's FlipDelta; MeasuredEnergyDelta
	// is the replayed run's total energy minus the candidate's. The two
	// must agree to float tolerance — Matches reports the check.
	PredictedEnergyDelta float64 `json:"predicted_energy_delta"`
	MeasuredEnergyDelta  float64 `json:"measured_energy_delta"`
	// PredictedWaitDelta / MeasuredWaitDelta are the same comparison for
	// user-visible spin-up wait; being integer microseconds they must
	// agree exactly.
	PredictedWaitDelta trace.Time `json:"predicted_wait_delta"`
	MeasuredWaitDelta  trace.Time `json:"measured_wait_delta"`
	// ReplayEnergyJ is the flipped run's total energy.
	ReplayEnergyJ float64 `json:"replay_energy_j"`
	// Matches reports whether measurement and attribution agree.
	Matches bool `json:"matches"`
}

// Result is one executed hypothesis.
type Result struct {
	Spec      *Spec          `json:"spec"`
	Candidate *sim.AppResult `json:"candidate"`
	Baseline  *sim.AppResult `json:"baseline"`
	// Decisions is the number of shutdown decisions the candidate run
	// evaluated (one per disk access).
	Decisions int `json:"decisions"`
	// Metrics holds the full metric registry, sorted by name.
	Metrics []Metric `json:"metrics"`
	// Criteria holds each spec criterion with its actual value.
	Criteria []CriterionResult `json:"criteria"`
	// Attribution ranks the candidate's decisions by the energy their
	// inversion would save (most negative FlipDelta first): the
	// "worst" decisions of the run.
	Attribution []trace.DecisionRecord `json:"attribution"`
	// Counterfactual is the flip replay, when the spec requested one.
	Counterfactual *CounterfactualResult `json:"counterfactual,omitempty"`
	// Supported reports the verdict: every criterion passed and, if a
	// counterfactual was requested, its measurement matched the
	// attribution.
	Supported bool `json:"supported"`
}

// Run executes the spec: candidate run with decision tracing and baseline
// run in one pass, metric evaluation, attribution ranking, and — if
// requested — the counterfactual flip replay. The spec must be valid
// (Parse validates).
func Run(spec *Spec) (*Result, error) {
	cfg := sim.DefaultConfig()
	if spec.Device != "" {
		dev, ok := DeviceByName(spec.Device)
		if !ok {
			return nil, fmt.Errorf("hypothesis: unknown device %q", spec.Device)
		}
		cfg.Disk = dev
	}
	suite, err := experiments.NewSuite(spec.seed(), cfg)
	if err != nil {
		return nil, err
	}
	suite.SetScale(spec.scale())
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	app, ok := workload.ByName(spec.App)
	if !ok {
		return nil, fmt.Errorf("hypothesis: unknown app %q", spec.App)
	}
	candPol, ok := suite.PolicyByName(spec.Candidate)
	if !ok {
		return nil, fmt.Errorf("hypothesis: unknown candidate policy %q", spec.Candidate)
	}
	basePol, ok := suite.PolicyByName(spec.Baseline)
	if !ok {
		return nil, fmt.Errorf("hypothesis: unknown baseline policy %q", spec.Baseline)
	}

	// Candidate and baseline share one pass: each execution is prepared
	// once and both cells step over it.
	var log trace.DecisionLog
	results, errs := sim.RunCells(suite.SourceFor(app), []sim.Cell{
		{Runner: runner, Policy: candPol, Trace: sim.TraceOptions{Sink: &log}},
		{Runner: runner, Policy: basePol},
	})
	if errs[0] != nil {
		return nil, fmt.Errorf("hypothesis: candidate run: %w", errs[0])
	}
	if errs[1] != nil {
		return nil, fmt.Errorf("hypothesis: baseline run: %w", errs[1])
	}
	cand, base := results[0], results[1]

	res := &Result{
		Spec:      spec,
		Candidate: cand,
		Baseline:  base,
		Decisions: len(log.Records),
		Metrics:   computeMetrics(cand, base),
	}
	res.Supported = true
	for _, c := range spec.Criteria {
		actual, ok := metricValue(res.Metrics, c.Metric)
		if !ok {
			return nil, fmt.Errorf("hypothesis: unknown metric %q", c.Metric)
		}
		cr := CriterionResult{Criterion: c, Actual: actual, Pass: c.evaluate(actual)}
		if !cr.Pass {
			res.Supported = false
		}
		res.Criteria = append(res.Criteria, cr)
	}

	res.Attribution = rankDecisions(log.Records, topN(spec))
	if spec.Counterfactual != nil {
		cf, err := replayFlip(runner, suite, app, candPol, spec, cand, log.Records)
		if err != nil {
			return nil, err
		}
		res.Counterfactual = cf
		if !cf.Matches {
			res.Supported = false
		}
	}
	return res, nil
}

// topN returns the spec's attribution-table size.
func topN(spec *Spec) int {
	if cf := spec.Counterfactual; cf != nil && cf.TopN > 0 {
		return cf.TopN
	}
	return defaultTopN
}

// rankDecisions returns the n decisions whose inversion saves the most
// energy: FlipDelta ascending, Index breaking ties for determinism.
func rankDecisions(recs []trace.DecisionRecord, n int) []trace.DecisionRecord {
	ranked := append([]trace.DecisionRecord(nil), recs...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].FlipDelta != ranked[j].FlipDelta {
			return ranked[i].FlipDelta < ranked[j].FlipDelta
		}
		return ranked[i].Index < ranked[j].Index
	})
	if n > len(ranked) {
		n = len(ranked)
	}
	return ranked[:n]
}

// replayFlip re-runs the candidate with the selected decision inverted
// and compares the measured energy/latency change with the attribution.
func replayFlip(runner *sim.Runner, suite *experiments.Suite, app *workload.App,
	pol sim.Policy, spec *Spec, cand *sim.AppResult, recs []trace.DecisionRecord) (*CounterfactualResult, error) {

	if len(recs) == 0 {
		return nil, fmt.Errorf("hypothesis: counterfactual requested but the run made no decisions")
	}
	var target trace.DecisionRecord
	switch spec.Counterfactual.Flip {
	case "worst":
		target = rankDecisions(recs, 1)[0]
	case "index":
		idx := spec.Counterfactual.Index
		if idx >= int64(len(recs)) {
			return nil, fmt.Errorf("hypothesis: counterfactual index %d out of range (run made %d decisions)", idx, len(recs))
		}
		target = recs[idx]
	default:
		return nil, fmt.Errorf("hypothesis: counterfactual flip %q", spec.Counterfactual.Flip)
	}

	flipped, err := runner.RunSourceTraced(suite.SourceFor(app), pol, sim.TraceOptions{
		Flip: func(k int64, shutdown bool, pc trace.PC) bool { return k == target.Index },
	})
	if err != nil {
		return nil, fmt.Errorf("hypothesis: counterfactual replay: %w", err)
	}
	cf := &CounterfactualResult{
		Record:               target,
		PredictedEnergyDelta: target.FlipDelta,
		MeasuredEnergyDelta:  flipped.Energy.Total() - cand.Energy.Total(),
		PredictedWaitDelta:   target.FlipWait,
		MeasuredWaitDelta:    flipped.WaitTime - cand.WaitTime,
		ReplayEnergyJ:        flipped.Energy.Total(),
	}
	// The deltas differ only by float summation order across the run's
	// accumulation, so the agreement tolerance scales with the total.
	tol := 1e-9 * math.Max(1, cand.Energy.Total())
	cf.Matches = math.Abs(cf.MeasuredEnergyDelta-cf.PredictedEnergyDelta) <= tol &&
		cf.MeasuredWaitDelta == cf.PredictedWaitDelta
	return cf, nil
}
