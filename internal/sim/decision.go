package sim

import (
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// Decision tracing and counterfactual replay.
//
// Every evaluated global idle period is one decision: shut down at some
// instant, or keep the disk spinning until the next arrival. A traced run
// streams one trace.DecisionRecord per decision to a DecisionSink, and a
// counterfactual run re-executes the same simulation with a selected set
// of decisions inverted. Because decisions never feed back into predictor
// or file-cache state (predictors are driven by the access stream alone,
// and the access stream is invariant under shutdown decisions), flipping
// decision k changes exactly that period's energy and latency accounting:
// the FlipDelta recorded for k equals the replayed run's total-energy
// change, up to float summation order. DESIGN.md §13 states the argument
// in full.

// DecisionSink receives one record per evaluated global idle period, in
// run order, synchronously on the simulating goroutine; it is the
// simulator's one per-period callback. The record is a value, so a sink
// may keep it. *trace.DecisionLog collects records in memory. A sink
// shared by concurrent runs must itself be safe for concurrent use.
type DecisionSink interface {
	Record(trace.DecisionRecord)
}

// FlipFunc selects decisions to counterfactually invert. It is called
// once per decision with the decision's global index k (counting every
// evaluated period across executions in run order), whether the policy
// decided to shut down, and the PC signature of the access leading into
// the period. Returning true inverts the decision: a shutdown becomes
// keep-spinning; a keep-spinning becomes a shutdown at the start of the
// period (clamped to the end of queued service), attributed to the
// backup source.
type FlipFunc func(k int64, shutdown bool, pc trace.PC) bool

// TraceOptions configures a traced or counterfactual run. The zero value
// is equivalent to a plain RunSource call.
type TraceOptions struct {
	// Sink, if non-nil, receives every decision record.
	Sink DecisionSink
	// Flip, if non-nil, selects decisions to invert before they are
	// classified and charged. Records emitted for inverted decisions
	// describe the decision as applied and carry the DecisionFlipped
	// flag.
	Flip FlipFunc
}

// RunSourceTraced is RunSource with decision tracing and counterfactual
// replay: the one-cell case of RunCells. With a zero opt it is RunSource.
func (r *Runner) RunSourceTraced(src trace.Source, pol Policy, opt TraceOptions) (*AppResult, error) {
	res, errs := RunCells(src, []Cell{{Runner: r, Policy: pol, Trace: opt}})
	return res[0], errs[0]
}

// tracedRun is the per-call state of a traced run: the options and the
// running decision counter. It belongs to one machine, never to the
// pooled runState, so concurrent traced runs on one Runner are
// independent.
type tracedRun struct {
	opt  TraceOptions
	next int64 // next decision index
}

// decide applies the counterfactual flip (if any) to one evaluated period
// and emits its decision record. It is called once per period from
// runExecution, with the decision exactly as the global combiner produced
// it; the returned values are the decision to apply. svcEnd is the
// period's service-completion time, gap/long classify the actual idle.
func (tr *tracedRun) decide(r *Runner, ex *execution, a trace.Event, svcEnd, T0, T1 trace.Time,
	s trace.Time, src predictor.Source, found bool, terminal, long bool) (trace.Time, predictor.Source, bool) {

	k := tr.next
	tr.next++
	flipped := false
	if tr.opt.Flip != nil && tr.opt.Flip(k, found, a.PC) {
		flipped = true
		if found {
			s, src, found = 0, predictor.SourceNone, false
		} else {
			s, src, found = T0, predictor.SourceBackup, true
		}
	}
	if tr.opt.Sink != nil {
		// Each outcome is priced as accountPeriod would charge it.
		price := func(s trace.Time, shutdown bool, src predictor.Source) (float64, trace.Time) {
			idleJ, wait, cycled := r.periodCost(svcEnd, T1, s, shutdown, src)
			if cycled {
				idleJ += r.cfg.Disk.CycleEnergy()
			}
			return idleJ, wait
		}
		actualE, actualW := price(s, found, src)
		spinE, _ := price(0, false, predictor.SourceNone)
		var flipS trace.Time
		var flipSrc predictor.Source
		flipFound := !found
		if flipFound {
			flipS, flipSrc = T0, predictor.SourceBackup
		}
		flipE, flipW := price(flipS, flipFound, flipSrc)

		rec := trace.DecisionRecord{
			Index:       k,
			Exec:        int32(ex.index),
			Pid:         a.Pid,
			PC:          a.PC,
			Source:      uint8(src),
			Start:       T0,
			End:         T1,
			Wait:        actualW,
			FlipWait:    flipW - actualW,
			EnergyJ:     actualE,
			EnergyDelta: actualE - spinE,
			FlipDelta:   flipE - actualE,
		}
		if found {
			rec.Flags |= trace.DecisionShutdown
			rec.At = s
		}
		if terminal {
			rec.Flags |= trace.DecisionTerminal
		}
		if flipped {
			rec.Flags |= trace.DecisionFlipped
		}
		if long {
			rec.Flags |= trace.DecisionLong
		}
		tr.opt.Sink.Record(rec)
	}
	return s, src, found
}
