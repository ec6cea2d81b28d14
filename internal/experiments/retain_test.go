package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pcapsim/internal/disk"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// retainingSuite returns a default-seed suite that retains its prepared
// executions.
func retainingSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.RetainPrepared()
	return s
}

// TestRetainedReplayRowsMatch: ReplayRows over a retaining suite gives
// the rows a non-retaining suite gives, for every app, one and four
// policies, capped and uncapped, on the pass that retains each execution
// and on the pass that reuses it. Each execution is prepared once.
func TestRetainedReplayRowsMatch(t *testing.T) {
	plain, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kept := retainingSuite(t)
	var execs int64
	for _, app := range workload.Apps() {
		execs += int64(app.Executions)
		for _, policies := range [][]string{{"pcap"}, {"base", "tp", "pcap", "ideal"}} {
			for _, limit := range []int{2, 0} {
				open := func(s *Suite) trace.Source {
					if limit > 0 {
						return trace.LimitExecs(s.SourceFor(app), limit)
					}
					return s.SourceFor(app)
				}
				want, err := plain.ReplayRows(open(plain), policies)
				if err != nil {
					t.Fatal(err)
				}
				for run := 0; run < 2; run++ {
					got, err := kept.ReplayRows(open(kept), policies)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %v limit %d run %d: retained rows differ:\n got %s\nwant %s",
							app.Name, policies, limit, run, rowsString(got), rowsString(want))
					}
				}
			}
		}
	}
	if got := kept.runner.RetainedPrepares(); got != execs {
		t.Errorf("retaining suite prepared %d executions, want each of the %d once", got, execs)
	}
	if got := plain.runner.RetainedPrepares(); got != 0 {
		t.Errorf("non-retaining suite retained %d executions", got)
	}
}

// rowsString renders rows with every result field.
func rowsString(rows []ReplayRow) string {
	var out string
	for _, r := range rows {
		out += fmt.Sprintf("%s: %+v\n", r.Policy, *r.Result)
	}
	return out
}

// TestRetainedPreparesOnceConcurrently: eight goroutines replaying every
// app over one retaining suite prepare each execution exactly once and
// agree on every row (run under -race by ci.sh).
func TestRetainedPreparesOnceConcurrently(t *testing.T) {
	const goroutines, limit = 8, 3
	s := retainingSuite(t)
	apps := workload.Apps()
	rows := make([][][]ReplayRow, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range apps {
				// Each goroutine starts at a different app, so first
				// preparations race with reuse.
				app := apps[(g+i)%len(apps)]
				r, err := s.ReplayRows(trace.LimitExecs(s.SourceFor(app), limit), []string{"tp", "pcap"})
				if err != nil {
					t.Error(err)
					return
				}
				if rows[g] == nil {
					rows[g] = make([][]ReplayRow, len(apps))
				}
				rows[g][(g+i)%len(apps)] = r
			}
		}()
	}
	wg.Wait()
	if got, want := s.runner.RetainedPrepares(), int64(len(apps)*limit); got != want {
		t.Errorf("%d goroutines prepared %d executions, want each of the %d once", goroutines, got, want)
	}
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(rows[g], rows[0]) {
			t.Errorf("goroutine %d's rows differ from goroutine 0's", g)
		}
	}
}

// TestRunMatrixRetainsNothing: the CLI's matrix runs on suites that
// leave retention off, so a full pass keeps no prepared execution in
// the suite or in its per-device sub-suites.
func TestRunMatrixRetainsNothing(t *testing.T) {
	s := NewDefaultSuite()
	if err := s.RunMatrix(2, "devices"); err != nil {
		t.Fatal(err)
	}
	if got := s.runner.RetainedPrepares(); got != 0 {
		t.Errorf("RunMatrix retained %d executions on a default suite", got)
	}
	for _, dev := range disk.Devices() {
		ds, err := s.deviceSuite(dev)
		if err != nil {
			t.Fatal(err)
		}
		if got := ds.runner.RetainedPrepares(); got != 0 {
			t.Errorf("%s sub-suite retained %d executions", dev.Name, got)
		}
	}
}
