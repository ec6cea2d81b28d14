package hypothesis

import (
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from this run's output")

// renderGoldenPath pins the report of the committed example spec.
const renderGoldenPath = "testdata/pcap-vs-timeout.golden"

// TestRenderGolden runs examples/pcap-vs-timeout.json end to end and
// compares the rendered report byte for byte: candidate and baseline
// results, metrics, attribution and the counterfactual replay. Refresh
// with -update after an intentional change.
func TestRenderGolden(t *testing.T) {
	data, err := os.ReadFile("../../examples/pcap-vs-timeout.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := Render(res)
	if *updateGolden {
		if err := os.WriteFile(renderGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(renderGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("report differs from %s (run with -update after an intentional change)\ngot:\n%s", renderGoldenPath, got)
	}
}
