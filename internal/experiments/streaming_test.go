package experiments

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// suitePolicies returns the deduplicated union of every policy the
// default suite evaluates, in a deterministic order.
func suitePolicies(s *Suite) []sim.Policy {
	var all []sim.Policy
	all = append(all, s.PolicyBase(), s.PolicyIdeal())
	all = append(all, s.table3Policies()...)
	all = append(all, s.fig67Policies()...)
	all = append(all, s.fig8Policies()...)
	all = append(all, s.fig9Policies()...)
	all = append(all, s.fig10Policies()...)
	all = append(all, s.tpSweepPolicies()...)
	// The sweep's 10 s point is the TP cell; its named twin stays in the
	// differential matrices as the sweep's PolicyTPWith at that value.
	all = append(all, s.PolicyTPWith("TP10s", trace.FromSeconds(10)))
	all = append(all, s.predictorPolicies()...)
	seen := make(map[string]bool)
	var out []sim.Policy
	for _, p := range all {
		if seen[p.Name] {
			continue
		}
		seen[p.Name] = true
		out = append(out, p)
	}
	return out
}

// TestStreamingDifferential is the streaming pipeline's end-to-end
// equivalence check: for every app in the default suite, a workload that
// is generated and encoded to the v2 format must decode back to exactly
// the original executions, and for every policy the decoded stream must
// simulate to a byte-identical result (rendered via %+v) and a deeply
// equal AppResult versus the materialized RunApp path. Under -short (the
// CI race pass) the matrix is trimmed to two apps and the structurally
// distinct policies.
func TestStreamingDifferential(t *testing.T) {
	s := NewDefaultSuite()
	runner, err := sim.NewRunner(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	apps := s.Apps()
	pols := suitePolicies(s)
	if testing.Short() {
		apps = apps[:2] // mozilla (multi-process) and writer
		short := []sim.Policy{s.PolicyBase(), s.PolicyTP(), s.PolicyLT()}
		short = append(short, s.table3Policies()...)
		seen := make(map[string]bool)
		pols = pols[:0]
		for _, p := range short {
			if !seen[p.Name] {
				seen[p.Name] = true
				pols = append(pols, p)
			}
		}
	}
	for _, app := range apps {
		traces := app.Traces(s.Seed())
		blob := encodeV2(t, traces)
		decoded, err := trace.Collect(trace.NewBlockSource(bytes.NewReader(blob)))
		if err != nil {
			t.Fatalf("%s: decode: %v", app.Name, err)
		}
		if !reflect.DeepEqual(decoded, traces) {
			t.Fatalf("%s: v2 round trip diverges from the original executions", app.Name)
		}
		for _, pol := range pols {
			pol := pol
			t.Run(app.Name+"/"+pol.Name, func(t *testing.T) {
				want, err := runner.RunApp(traces, pol)
				if err != nil {
					t.Fatalf("RunApp: %v", err)
				}
				got, err := runner.RunSource(trace.NewBlockSource(bytes.NewReader(blob)), pol)
				if err != nil {
					t.Fatalf("RunSource: %v", err)
				}
				if wt, gt := fmt.Sprintf("%+v", want), fmt.Sprintf("%+v", got); wt != gt {
					t.Errorf("streamed result text differs:\n got %s\nwant %s", gt, wt)
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("streamed AppResult not deeply equal to materialized one")
				}
			})
		}
	}
}

// encodeV2 writes every execution to one v2 byte stream.
func encodeV2(t *testing.T, traces []*trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range traces {
		if err := trace.WriteColumnar(&buf, tr); err != nil {
			t.Fatalf("encode %s/%d: %v", tr.App, tr.Execution, err)
		}
	}
	return buf.Bytes()
}

// TestReplayFileMatchesRunApp closes the loop on the CLI replay path: a
// v2 file written by the tracegen path and replayed through
// Suite.ReplayRows yields the same table as replaying the in-memory
// slice source.
func TestReplayFileMatchesRunApp(t *testing.T) {
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("nedit")
	traces := app.Traces(s.Seed())
	v2 := encodeV2(t, traces)

	policies := []string{"base", "tp", "pcap", "ideal"}
	table := func(src trace.Source) string {
		t.Helper()
		rows, err := s.ReplayRows(src, policies)
		if err != nil {
			t.Fatal(err)
		}
		return RenderReplayRows(rows)
	}
	fromFile := table(trace.NewBlockSource(bytes.NewReader(v2)))
	fromSlice := table(trace.NewSliceSource(traces...))
	if fromFile != fromSlice {
		t.Errorf("replay over v2 bytes diverges from replay over the slice source:\n%s\nvs\n%s", fromFile, fromSlice)
	}
	if _, err := s.ReplayRows(trace.NewSliceSource(traces...), []string{"nope"}); err == nil {
		t.Error("ReplayRows accepted an unknown policy name")
	}
}

// TestStreamingAndRetainingMatchGolden renders all experiments from a
// streaming suite (the default: every source regenerates its workload)
// and from a retaining one (pinned traces, prepared executions kept), each
// after a RunMatrix pass, and requires both to equal the golden file byte
// for byte: how a suite gets its workloads must not perturb a digit.
func TestStreamingAndRetainingMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full suite twice; covered by the long pass")
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, retain := range []bool{false, true} {
		s := NewDefaultSuite()
		if retain {
			s.RetainPrepared()
		}
		if err := s.RunMatrix(2); err != nil {
			t.Fatal(err)
		}
		got, err := s.RenderAll(false)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("retain=%v: output diverged from %s\n%s", retain, goldenPath, diffPosition(string(want), got))
		}
		if kept := s.runner.RetainedPrepares() > 0; kept != retain {
			t.Errorf("retain=%v: suite retained prepared executions: %v", retain, kept)
		}
	}
}

// TestSuiteScaleMultipliesExecutions checks the -scale plumbing at the
// suite level: execution counts multiply, and scale 1 is the identity.
func TestSuiteScaleMultipliesExecutions(t *testing.T) {
	app := workload.Apps()[4] // nedit: smallest workload
	base := NewDefaultSuite()
	baseRes, err := base.Run(app, base.PolicyTP())
	if err != nil {
		t.Fatal(err)
	}
	scaled := NewDefaultSuite()
	scaled.SetScale(3)
	if scaled.Scale() != 3 {
		t.Fatalf("Scale() = %d, want 3", scaled.Scale())
	}
	scaledRes, err := scaled.Run(app, scaled.PolicyTP())
	if err != nil {
		t.Fatal(err)
	}
	if scaledRes.Executions != 3*baseRes.Executions {
		t.Errorf("scaled executions = %d, want %d", scaledRes.Executions, 3*baseRes.Executions)
	}
	if scaledRes.TotalIOs != 3*baseRes.TotalIOs {
		t.Errorf("scaled TotalIOs = %d, want %d", scaledRes.TotalIOs, 3*baseRes.TotalIOs)
	}

	one := NewDefaultSuite()
	one.SetScale(1)
	oneRes, err := one.Run(app, one.PolicyTP())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oneRes, baseRes) {
		t.Error("scale 1 result differs from default")
	}
}
