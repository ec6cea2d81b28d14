package server

import (
	"math"
	"sync/atomic"

	"pcapsim/internal/experiments"
)

// tally totals simulated work. Runs report progress at execution and
// policy boundaries, a handful of adds per eval job, so plain shared
// atomics cost nothing measurable; every add is applied exactly once and
// reads need no lock.
type tally struct {
	events     atomic.Int64
	execs      atomic.Int64
	machines   atomic.Int64
	energyBits atomic.Uint64 // float64 bits; see addFloat
}

// add records one increment of a run's work.
func (t *tally) add(p experiments.Progress) {
	t.events.Add(p.Events)
	t.execs.Add(p.Execs)
	t.machines.Add(p.Machines)
	if p.EnergyJ != 0 {
		addFloat(&t.energyBits, p.EnergyJ)
	}
}

func (t *tally) energyJ() float64 { return math.Float64frombits(t.energyBits.Load()) }

// addFloat adds delta to a float64 stored as atomic bits. Only the order
// of concurrent adds, and so the usual rounding of their sum, depends on
// scheduling.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Counters are the server's live totals, served by /stats: job
// lifecycle transitions plus the work of every job.
type Counters struct {
	jobsStarted atomic.Int64
	jobsDone    atomic.Int64
	jobsFailed  atomic.Int64
	work        tally
}

// Snapshot is one read of the counters; each field is read atomically
// on its own.
type Snapshot struct {
	// JobsStarted / JobsDone / JobsFailed count job lifecycle
	// transitions; failed jobs (including canceled and timed-out ones)
	// are counted in both JobsDone and JobsFailed.
	JobsStarted int64 `json:"jobs_started"`
	JobsDone    int64 `json:"jobs_done"`
	JobsFailed  int64 `json:"jobs_failed"`
	// Events and Execs count simulated trace events and executions
	// delivered to policies; Machines counts retired fleet machines.
	Events   int64 `json:"events"`
	Execs    int64 `json:"execs"`
	Machines int64 `json:"machines"`
	// EnergyJ totals the disk energy of every simulated policy run.
	EnergyJ float64 `json:"energy_j"`
}

// Snapshot reads the current totals.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		JobsStarted: c.jobsStarted.Load(),
		JobsDone:    c.jobsDone.Load(),
		JobsFailed:  c.jobsFailed.Load(),
		Events:      c.work.events.Load(),
		Execs:       c.work.execs.Load(),
		Machines:    c.work.machines.Load(),
		EnergyJ:     c.work.energyJ(),
	}
}

// jobDone records a finished job; failed also counts it as a failure
// (errors, cancellations, timeouts).
func (c *Counters) jobDone(failed bool) {
	c.jobsDone.Add(1)
	if failed {
		c.jobsFailed.Add(1)
	}
}
