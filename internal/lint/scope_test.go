package lint

import "testing"

// TestResultAffectingScope pins the analyzer scope: every package on the
// generation → simulation → rendering path (including the hypothesis
// harness, which feeds verdicts from simulation results, and the
// trace decoders in internal/trace) is covered by detmap/nondet-source,
// while the sanctioned exceptions stay out. The pcapd server packages
// are in scope too: a server job's output carries the same determinism
// contract as a CLI run (byte-identical at any pool size), so handler
// and counter code must not smuggle wall-clock or map-order state into
// results, and poolsafe vets the pooled job-context ownership. The
// decoders' CLI consumers (tracegen, traceinspect, pcapsim)
// stay outside — they only render what the in-scope packages produce.
func TestResultAffectingScope(t *testing.T) {
	for _, p := range []string{
		"internal/sim", "internal/trace", "internal/experiments",
		"internal/hypothesis", "internal/workload", "internal/predictor",
		"internal/fleet", "internal/server",
	} {
		if !resultAffecting(p) {
			t.Errorf("%s not in the result-affecting scope", p)
		}
	}
	for _, p := range []string{
		"internal/rng", "cmd/pcapsim", "cmd/tracegen", "cmd/traceinspect",
		"cmd/pcapd", "cmd/pcapload", "internal/lint",
	} {
		if resultAffecting(p) {
			t.Errorf("%s must stay outside the result-affecting scope", p)
		}
	}
}

func TestErrcheckScope(t *testing.T) {
	for _, p := range []string{
		"internal/trace", "internal/persist", "cmd/benchjson",
		"cmd/pcapd", "cmd/pcapload",
		"internal/server",
	} {
		if !errcheckScope(p) {
			t.Errorf("%s not in the errcheck-lite scope", p)
		}
	}
	if errcheckScope("internal/sim") {
		t.Error("internal/sim must stay outside the errcheck-lite scope")
	}
}
