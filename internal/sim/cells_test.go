package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// boomPolicy reuses a timeout factory and fails its first round trip.
func boomPolicy() Policy {
	p := tpPolicy(10 * trace.Second)
	p.Name = "boom"
	p.Reuse = true
	p.RoundTrip = func(predictor.Factory) (predictor.Factory, error) { return nil, errors.New("boom") }
	return p
}

// threeExecs is a small three-execution workload.
func threeExecs() []*trace.Trace {
	return []*trace.Trace{handTrace(0, 1, 30), handTrace(0, 2, 40), handTrace(0, 5, 9)}
}

// sameAsSolo checks a shared-pass result against a one-cell run.
func sameAsSolo(t *testing.T, r *Runner, pol Policy, got *AppResult, err error, traces []*trace.Trace) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", pol.Name, err)
	}
	want, err := r.RunApp(traces, pol)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("%s: shared result %+v, solo %+v", pol.Name, got, want)
	}
}

// TestRunCellsCellErrors pins that a RoundTrip or Validate failure fails
// only its own cell.
func TestRunCellsCellErrors(t *testing.T) {
	r := mustRunner(t)
	traces := threeExecs()
	pols := []Policy{tpPolicy(10 * trace.Second), boomPolicy(), {Name: "invalid"}, basePolicy()}
	cells := make([]Cell, len(pols))
	for i, p := range pols {
		cells[i] = Cell{Runner: r, Policy: p}
	}
	res, errs := RunCells(trace.NewSliceSource(traces...), cells)
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "round-tripping boom after execution 0") || res[1] != nil {
		t.Errorf("boom cell: res %v, err %v; want the round-trip error alone", res[1], errs[1])
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "needs a factory") || res[2] != nil {
		t.Errorf("invalid cell: res %v, err %v; want the validation error alone", res[2], errs[2])
	}
	sameAsSolo(t, r, pols[0], res[0], errs[0], traces)
	sameAsSolo(t, r, pols[3], res[3], errs[3], traces)
}

// TestRunCellsSourceError pins that a source failing mid-stream reaches
// every running cell as the same wrapped error, while a cell that failed
// earlier keeps its own.
func TestRunCellsSourceError(t *testing.T) {
	r := mustRunner(t)
	var buf bytes.Buffer
	for _, tr := range threeExecs() {
		if err := trace.WriteColumnar(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	cut := buf.Bytes()[:buf.Len()-2]
	cells := []Cell{
		{Runner: r, Policy: basePolicy()},
		{Runner: r, Policy: boomPolicy()},
		{Runner: r, Policy: tpPolicy(10 * trace.Second)},
	}
	res, errs := RunCells(trace.NewBlockSource(bytes.NewReader(cut)), cells)
	for _, i := range []int{0, 2} {
		if res[i] != nil || !errors.Is(errs[i], trace.ErrBadFormat) || !strings.Contains(errs[i].Error(), "sim: reading trace source") {
			t.Errorf("cell %d: res %v, err %v; want the wrapped source error", i, res[i], errs[i])
		}
	}
	if errs[0] == nil || errs[2] == nil || errs[0].Error() != errs[2].Error() {
		t.Errorf("cells saw different source errors: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "round-tripping boom") {
		t.Errorf("boom cell: err %v, want its own round-trip error", errs[1])
	}
}

// TestRunCellsCacheMismatch pins that a cell whose runner has another file
// cache configuration gets a typed error and no result, while the cells
// matching the pass run over the pass's own cache.
func TestRunCellsCacheMismatch(t *testing.T) {
	r := mustRunner(t)
	cfg := fastCfg()
	cfg.Cache.SizeBytes *= 2
	other := MustNewRunner(cfg)
	traces := threeExecs()
	pol := tpPolicy(10 * trace.Second)
	res, errs := RunCells(trace.NewSliceSource(traces...), []Cell{
		{Runner: r, Policy: pol},
		{Runner: other, Policy: pol},
	})
	var mismatch *CacheMismatchError
	if !errors.As(errs[1], &mismatch) || res[1] != nil {
		t.Fatalf("mismatched cell: res %v, err %v; want a *CacheMismatchError", res[1], errs[1])
	}
	if mismatch.Cell != 1 || mismatch.Want != r.Config().Cache || mismatch.Got != cfg.Cache {
		t.Errorf("mismatch error = %+v", mismatch)
	}
	sameAsSolo(t, r, pol, res[0], errs[0], traces)
}

// cutSource ends its workload with an error after the first execution,
// the way an interrupted fleet session does.
type cutSource struct {
	*trace.SliceSource
	pulls int
	err   error
}

func (s *cutSource) NextExec() (string, int, bool) {
	if s.pulls++; s.pulls > 1 {
		s.err = context.Canceled
		return "", 0, false
	}
	return s.SliceSource.NextExec()
}

func (s *cutSource) Err() error { return s.err }

// TestRunCellsReturnsStates checks that every machine's pooled runState
// and the pass's prepState go back to their runner on the success and
// every failure path, a source error included: repeated passes with
// failing cells must keep drawing recycled states rather than allocating
// fresh ones.
func TestRunCellsReturnsStates(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	r := mustRunner(t)
	fresh := 0
	r.statePool.New = func() any { fresh++; return &runState{} }
	freshPrep := 0
	prepPool.New = func() any { freshPrep++; return &prepState{} }
	defer func() { prepPool.New = nil }()
	traces := threeExecs()
	const passes = 20
	for range passes {
		RunCells(trace.NewSliceSource(traces...), []Cell{
			{Runner: r, Policy: basePolicy()},
			{Runner: r, Policy: boomPolicy()},
			{Runner: r, Policy: Policy{Name: "invalid"}},
			{Runner: r, Policy: tpPolicy(10 * trace.Second)},
		})
		if _, err := r.RunSource(&cutSource{SliceSource: trace.NewSliceSource(traces...)}, basePolicy()); !errors.Is(err, context.Canceled) {
			t.Fatalf("cut source: err = %v, want context.Canceled", err)
		}
	}
	// Four machines per pass; a leak on any path would allocate at
	// least one state per pass.
	if fresh >= passes {
		t.Errorf("%d fresh runStates over %d passes: states are not returned to the pool", fresh, passes)
	}
	if freshPrep >= passes {
		t.Errorf("%d fresh prepStates over %d passes: states are not returned to the pool", freshPrep, passes)
	}
}
