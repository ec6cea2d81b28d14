package server

import (
	"sync"
	"testing"

	"pcapsim/internal/experiments"
)

// TestCountersExactSum is the exactness contract under concurrency:
// writer goroutines adding into one Counters must sum exactly, no add
// lost and none applied twice. The energy adds are dyadic rationals well
// inside float64's exact-integer range, so the expected total is exact
// whatever order the concurrent adds land in. Run under -race by ci.sh.
func TestCountersExactSum(t *testing.T) {
	const (
		writers = 8
		adds    = 10_000
	)
	var c Counters
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				c.work.add(experiments.Progress{Events: 3, Execs: 1})
				if i%5 == 0 {
					c.work.add(experiments.Progress{Machines: 2})
				}
				c.work.add(experiments.Progress{EnergyJ: 0.25})
			}
		}()
	}
	wg.Wait()

	s := c.Snapshot()
	if want := int64(writers * adds * 3); s.Events != want {
		t.Errorf("Events = %d, want %d", s.Events, want)
	}
	if want := int64(writers * adds); s.Execs != want {
		t.Errorf("Execs = %d, want %d", s.Execs, want)
	}
	if want := int64(writers * (adds / 5) * 2); s.Machines != want {
		t.Errorf("Machines = %d, want %d", s.Machines, want)
	}
	if want := float64(writers*adds) * 0.25; s.EnergyJ != want {
		t.Errorf("EnergyJ = %g, want %g", s.EnergyJ, want)
	}
}

// TestJobCounters covers the job lifecycle counts.
func TestJobCounters(t *testing.T) {
	var c Counters
	c.jobsStarted.Add(2)
	c.jobDone(false)
	c.jobDone(true)
	got := c.Snapshot()
	if got.JobsStarted != 2 || got.JobsDone != 2 || got.JobsFailed != 1 {
		t.Fatalf("job counters: %+v", got)
	}
}
