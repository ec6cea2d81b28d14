package experiments

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
)

// TestCounterfactualDifferential extends the PR 1 differential harness to
// the traced runner: for every app × policy in the default suite, a
// RunSourceTraced call with a recording sink and an empty flip-set must
// produce a result %+v-identical and deeply equal to the plain RunSource
// run — decision tracing observes the simulation without perturbing a
// digit of it, which is what keeps suite.golden byte-identical with the
// feature merged. Under -short (the CI race pass) the matrix is trimmed
// like TestStreamingDifferential's.
func TestCounterfactualDifferential(t *testing.T) {
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
	neverFlip := func(k int64, shutdown bool, pc trace.PC) bool { return false }
	for _, app := range apps {
		traces := app.Traces(s.Seed())
		for _, pol := range pols {
			pol := pol
			t.Run(app.Name+"/"+pol.Name, func(t *testing.T) {
				want, err := runner.RunApp(traces, pol)
				if err != nil {
					t.Fatalf("RunApp: %v", err)
				}
				var log trace.DecisionLog
				got, err := runner.RunSourceTraced(trace.NewSliceSource(traces...), pol, sim.TraceOptions{
					Sink: &log,
					Flip: neverFlip,
				})
				if err != nil {
					t.Fatalf("RunSourceTraced: %v", err)
				}
				if wt, gt := fmt.Sprintf("%+v", want), fmt.Sprintf("%+v", got); wt != gt {
					t.Errorf("traced result text differs:\n got %s\nwant %s", gt, wt)
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("traced AppResult not deeply equal to plain one")
				}
				if len(log.Records) != want.DiskAccesses {
					t.Errorf("recorded %d decisions for %d disk accesses", len(log.Records), want.DiskAccesses)
				}
				for i, rec := range log.Records {
					if rec.Flipped() {
						t.Fatalf("record %d flagged flipped under an empty flip-set", i)
					}
				}
			})
		}
	}
}

// decisionGoldens are the committed decision traces of xemacs under PCAP
// at the default seed, one record per line. The first holds each
// execution's first access alone, so every period is terminal; the
// second holds the whole first execution, so it pins shutdowns, waits and
// the three prices of every period.
var decisionGoldens = []struct {
	path  string
	limit func(trace.Source) trace.Source
}{
	{"testdata/xemacs-pcap.decisions", firstEvents},
	{"testdata/xemacs-pcap-exec0.decisions", func(s trace.Source) trace.Source { return trace.LimitExecs(s, 1) }},
}

// firstEvents keeps each execution of s down to its first event.
func firstEvents(s trace.Source) trace.Source {
	traces, err := trace.Collect(s)
	if err != nil {
		panic(err)
	}
	for _, tr := range traces {
		tr.Events = tr.Events[:min(1, len(tr.Events))]
	}
	return trace.NewSliceSource(traces...)
}

// goldenDecisionRun records the fixed-seed decision stream of xemacs
// under PCAP, default configuration, over the source limit carves out.
func goldenDecisionRun(t *testing.T, limit func(trace.Source) trace.Source) []trace.DecisionRecord {
	t.Helper()
	s := NewDefaultSuite()
	runner, err := sim.NewRunner(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := s.Apps()[0], 0
	for _, a := range s.Apps() {
		if a.Name == "xemacs" {
			app = a
		}
	}
	if app.Name != "xemacs" {
		t.Fatal("xemacs workload missing")
	}
	pol, ok := s.PolicyByName("pcap")
	if !ok {
		t.Fatal("pcap policy missing")
	}
	var log trace.DecisionLog
	src := limit(trace.NewSliceSource(app.Traces(s.Seed())...))
	if _, err := runner.RunSourceTraced(src, pol, sim.TraceOptions{Sink: &log}); err != nil {
		t.Fatal(err)
	}
	return log.Records
}

// formatDecisions renders records one per line with every field; floats
// use the shortest representation that parses back to the same bits.
func formatDecisions(recs []trace.DecisionRecord) []byte {
	var b bytes.Buffer
	b.WriteString("# index exec pid pc flags source start end at wait flip_wait energy_j energy_delta flip_delta\n")
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range recs {
		fmt.Fprintf(&b, "%d %d %d %d %d %d %d %d %d %d %d %s %s %s\n",
			r.Index, r.Exec, r.Pid, r.PC, r.Flags, r.Source,
			int64(r.Start), int64(r.End), int64(r.At), int64(r.Wait), int64(r.FlipWait),
			g(r.EnergyJ), g(r.EnergyDelta), g(r.FlipDelta))
	}
	return b.Bytes()
}

// TestDecisionTraceGolden pins every field of the fixed-seed decision
// streams, bit for bit: pricing, flags and identities. Refresh with
// -update after an intentional simulator change.
func TestDecisionTraceGolden(t *testing.T) {
	for _, g := range decisionGoldens {
		recs := goldenDecisionRun(t, g.limit)
		if len(recs) == 0 {
			t.Fatalf("%s: golden run produced no decisions", g.path)
		}
		got := formatDecisions(recs)
		if *updateGolden {
			if err := os.WriteFile(g.path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d records, %d bytes)", g.path, len(recs), len(got))
			continue
		}
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: decision trace changed (run with -update after an intentional change)\n%s",
				g.path, diffPosition(string(want), string(got)))
		}
	}
}
