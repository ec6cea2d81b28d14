package prefetch_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"pcapsim/internal/experiments"
	"pcapsim/internal/prefetch"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from this run's output")

// countersGoldenPath pins every Result counter of the suite's prefetch
// comparison.
const countersGoldenPath = "testdata/counters.golden"

// TestCountersGolden evaluates every application of the default suite
// with the demand-fetch baseline and both readahead prefetchers at the
// suite's 256-block cache and degree 8, and compares every Result field
// byte for byte. suite.golden prints only rounded percentages, so a
// one-block drift in Prefetched or Wasted would slip through it. Refresh
// with -update after an intentional change.
func TestCountersGolden(t *testing.T) {
	s := experiments.NewDefaultSuite()
	var b strings.Builder
	for _, app := range s.Apps() {
		rs, err := prefetch.EvaluateSource(s.SourceFor(app), 256,
			prefetch.None{}, prefetch.NewGlobalReadahead(8), prefetch.NewPCReadahead(8))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			// Every prefetched block is either used or wasted.
			if r.Prefetched != r.PrefetchHits+r.Wasted {
				t.Errorf("%s %s: %d prefetched != %d hits + %d wasted", app.Name, r.Prefetcher, r.Prefetched, r.PrefetchHits, r.Wasted)
			}
			fmt.Fprintf(&b, "%-9s %-13s reads=%d misses=%d prefetch_hits=%d prefetched=%d wasted=%d\n",
				app.Name, r.Prefetcher, r.DemandReads, r.DemandMisses, r.PrefetchHits, r.Prefetched, r.Wasted)
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(countersGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countersGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("counters differ from %s (run with -update after an intentional change)\ngot:\n%s", countersGoldenPath, got)
	}
}
