package sim

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// raceDetectorEnabled is flipped to true by race_test.go when the race
// detector is compiled in (see TestDecisionRecordingDisabledAllocs).
var raceDetectorEnabled bool

// TestTracedZeroOptionsMatchesRunSource: a traced run with zero options
// must be deeply equal to a plain run — they are the same code path. The
// full app × policy matrix version of this lives in internal/experiments.
func TestTracedZeroOptionsMatchesRunSource(t *testing.T) {
	r := mustRunner(t)
	tr := handTrace(0, 30, 42, 49, 51)
	for _, pol := range []Policy{basePolicy(), tpPolicy(10 * trace.Second), idealPolicy(r.Config().Disk.Breakeven)} {
		want, err := r.RunApp([]*trace.Trace{tr}, pol)
		if err != nil {
			t.Fatalf("%s: RunApp: %v", pol.Name, err)
		}
		got, err := r.RunSourceTraced(trace.NewSliceSource(tr), pol, TraceOptions{})
		if err != nil {
			t.Fatalf("%s: RunSourceTraced: %v", pol.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: zero-option traced run differs:\n got %+v\nwant %+v", pol.Name, got, want)
		}
	}
}

// TestDecisionRecordInvariants runs a traced timeout simulation over a
// hand-made trace and checks the structural contract of the records:
// dense indices, period bounds matching the access stream, and the
// energy-delta identities that make attribution sound.
func TestDecisionRecordInvariants(t *testing.T) {
	r := mustRunner(t)
	tr := handTrace(0, 30, 42, 49, 51)
	var log trace.DecisionLog
	res, err := r.RunSourceTraced(trace.NewSliceSource(tr), tpPolicy(10*trace.Second), TraceOptions{Sink: &log})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != res.DiskAccesses {
		t.Fatalf("recorded %d decisions for %d disk accesses", len(log.Records), res.DiskAccesses)
	}
	shutdowns := 0
	for i, rec := range log.Records {
		if rec.Index != int64(i) {
			t.Fatalf("record %d has index %d", i, rec.Index)
		}
		if rec.Exec != 0 {
			t.Fatalf("record %d in execution %d", i, rec.Exec)
		}
		if rec.End < rec.Start {
			t.Fatalf("record %d: End %v before Start %v", i, rec.End, rec.Start)
		}
		if rec.Flipped() {
			t.Fatalf("record %d flagged flipped in a flip-free run", i)
		}
		if rec.Shutdown() {
			shutdowns++
			if rec.At < rec.Start || rec.At > rec.End {
				t.Fatalf("record %d: shutdown at %v outside [%v, %v]", i, rec.At, rec.Start, rec.End)
			}
			// Flipping a shutdown yields the keep-spinning outcome, so the
			// two deltas are exact negations (same two floats, same order).
			if rec.FlipDelta != -rec.EnergyDelta {
				t.Fatalf("record %d: FlipDelta %g != -EnergyDelta %g", i, rec.FlipDelta, rec.EnergyDelta)
			}
		} else {
			// A keep-spinning decision costs exactly the spinning baseline.
			if rec.EnergyDelta != 0 {
				t.Fatalf("record %d: keep-spinning EnergyDelta = %g", i, rec.EnergyDelta)
			}
			if rec.Wait != 0 {
				t.Fatalf("record %d: keep-spinning Wait = %v", i, rec.Wait)
			}
		}
	}
	if shutdowns != res.Cycles {
		t.Fatalf("%d shutdown records, result reports %d cycles", shutdowns, res.Cycles)
	}
	if !log.Records[len(log.Records)-1].Terminal() {
		t.Fatal("last record not flagged terminal")
	}
}

// TestFlipMatchesAttribution is the core counterfactual contract: re-run
// with decision k inverted, and the total-energy change must equal the
// FlipDelta recorded for k (up to float summation order), while the
// latency change equals FlipWait exactly (integer microseconds).
func TestFlipMatchesAttribution(t *testing.T) {
	r := mustRunner(t)
	tr := handTrace(0, 30, 42, 49, 51)
	pol := tpPolicy(10 * trace.Second)

	var log trace.DecisionLog
	base, err := r.RunSourceTraced(trace.NewSliceSource(tr), pol, TraceOptions{Sink: &log})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range log.Records {
		rec := rec
		var flippedLog trace.DecisionLog
		flip := func(k int64, shutdown bool, pc trace.PC) bool { return k == rec.Index }
		got, err := r.RunSourceTraced(trace.NewSliceSource(tr), pol, TraceOptions{Sink: &flippedLog, Flip: flip})
		if err != nil {
			t.Fatalf("flip %d: %v", rec.Index, err)
		}
		wantE := base.Energy.Total() + rec.FlipDelta
		if diff := math.Abs(got.Energy.Total() - wantE); diff > 1e-9*math.Max(1, wantE) {
			t.Errorf("flip %d: energy %.9f, attribution predicts %.9f (Δ %g)",
				rec.Index, got.Energy.Total(), wantE, diff)
		}
		if got.WaitTime-base.WaitTime != rec.FlipWait {
			t.Errorf("flip %d: wait delta %v, attribution predicts %v",
				rec.Index, got.WaitTime-base.WaitTime, rec.FlipWait)
		}
		fr := flippedLog.Records[rec.Index]
		if !fr.Flipped() {
			t.Errorf("flip %d: record not flagged flipped", rec.Index)
		}
		if fr.Shutdown() == rec.Shutdown() {
			t.Errorf("flip %d: shutdown flag did not invert", rec.Index)
		}
		// For a flipped keep-spinning decision the round trip is exact: the
		// synthetic shutdown's own flip is keep-spinning again. (A flipped
		// shutdown is not symmetric — its re-flip shuts down at the period
		// start, not at the original predictor's chosen instant.)
		if !rec.Shutdown() && fr.FlipDelta != -rec.FlipDelta {
			t.Errorf("flip %d: flipped record's FlipDelta %g, want %g", rec.Index, fr.FlipDelta, -rec.FlipDelta)
		}
	}
}

// TestDecisionRecordingDisabledAllocs: the traced entry point with zero
// options must not add a single allocation over the plain path — disabled
// recording is free. With a warmed sink it may add exactly the tracedRun
// frame. Mirrors TestBlockSourceSteadyStateAllocs' race-detector skip.
func TestDecisionRecordingDisabledAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; the non-race pass enforces the count")
	}
	r := mustRunner(t)
	var buf bytes.Buffer
	if err := trace.WriteColumnar(&buf, handTrace(0, 30, 42, 49, 51)); err != nil {
		t.Fatal(err)
	}
	src := trace.NewBlockSource(bytes.NewReader(buf.Bytes()))
	pol := basePolicy()
	run := func(opts *TraceOptions) {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		var err error
		if opts == nil {
			_, err = r.RunSource(src, pol)
		} else {
			_, err = r.RunSourceTraced(src, pol, *opts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	run(nil) // warmup: pooled runState reaches its high-water mark
	plain := testing.AllocsPerRun(20, func() { run(nil) })
	zero := &TraceOptions{}
	disabled := testing.AllocsPerRun(20, func() { run(zero) })
	if disabled > plain+0.5 {
		t.Fatalf("disabled recording: %.2f allocs vs %.2f plain", disabled, plain)
	}

	var log trace.DecisionLog
	opts := &TraceOptions{Sink: &log}
	run(opts) // warmup: log capacity reaches its high-water mark
	log.Reset()
	traced := testing.AllocsPerRun(20, func() { log.Reset(); run(opts) })
	// One allocation is the tracedRun frame itself; the recording path
	// must add nothing per decision.
	if traced > plain+1.5 {
		t.Fatalf("recording to a warmed sink: %.2f allocs vs %.2f plain", traced, plain)
	}
}

// TestFlipOfSpinningDecisionUsesBackupSource pins the flip semantics for
// the keep-spinning → shutdown direction: the synthetic shutdown starts at
// the period's arrival, is attributed to the backup source, and charges a
// power cycle.
func TestFlipOfSpinningDecisionUsesBackupSource(t *testing.T) {
	r := mustRunner(t)
	tr := handTrace(0, 30)
	var log trace.DecisionLog
	res, err := r.RunSourceTraced(trace.NewSliceSource(tr), basePolicy(), TraceOptions{
		Sink: &log,
		Flip: func(k int64, shutdown bool, pc trace.PC) bool { return k == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := log.Records[0]
	if !rec.Flipped() || !rec.Shutdown() {
		t.Fatalf("record 0 = %+v, want flipped shutdown", rec)
	}
	if rec.At != rec.Start {
		t.Fatalf("synthetic shutdown at %v, want period start %v", rec.At, rec.Start)
	}
	if predictor.Source(rec.Source) != predictor.SourceBackup {
		t.Fatalf("synthetic shutdown source %d, want backup", rec.Source)
	}
	if res.Cycles != 1 || res.Wakeups != 1 {
		t.Fatalf("flipped run performed %d cycles, %d wakeups; want 1, 1", res.Cycles, res.Wakeups)
	}
}
