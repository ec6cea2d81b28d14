package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// TestRunSourceMatchesRunApp checks the core streaming equivalence on a
// generated multi-execution workload: RunSource over a SliceSource is the
// same code path RunApp takes, and RunSource over a purely streaming
// source (the workload generator) must aggregate to a deeply equal
// result.
func TestRunSourceMatchesRunApp(t *testing.T) {
	r := mustRunner(t)
	app, _ := workload.ByName("nedit")
	traces := app.Traces(7)
	for _, pol := range []Policy{basePolicy(), tpPolicy(10 * trace.Second), idealPolicy(r.Config().Disk.Breakeven)} {
		want, err := r.RunApp(traces, pol)
		if err != nil {
			t.Fatalf("%s: RunApp: %v", pol.Name, err)
		}
		got, err := r.RunSource(app.Stream(7), pol)
		if err != nil {
			t.Fatalf("%s: RunSource: %v", pol.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunSource(stream) = %+v\nwant %+v", pol.Name, got, want)
		}
	}
}

// TestRunSourceDecodedStream round-trips a workload through the v2
// codec and simulates the decoded stream, never materializing it.
func TestRunSourceDecodedStream(t *testing.T) {
	r := mustRunner(t)
	app, _ := workload.ByName("mplayer")
	traces := app.Traces(7)
	var buf bytes.Buffer
	for _, tr := range traces {
		if err := trace.WriteColumnar(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	pol := tpPolicy(10 * trace.Second)
	want, err := r.RunApp(traces, pol)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunSource(trace.NewBlockSource(bytes.NewReader(buf.Bytes())), pol)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("decoded stream result differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunSourceEmpty(t *testing.T) {
	r := mustRunner(t)
	_, err := r.RunSource(trace.NewSliceSource(), basePolicy())
	if err == nil || err.Error() != "sim: no traces" {
		t.Errorf("empty source: err = %v, want \"sim: no traces\"", err)
	}
}

func TestRunSourcePropagatesSourceError(t *testing.T) {
	r := mustRunner(t)
	tr := handTrace(0, 1, 2)
	var buf bytes.Buffer
	if err := trace.WriteColumnar(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-2]
	_, err := r.RunSource(trace.NewBlockSource(bytes.NewReader(cut)), basePolicy())
	if err == nil {
		t.Fatal("truncated stream should fail the run")
	}
	if !errors.Is(err, trace.ErrBadFormat) || !strings.Contains(err.Error(), "sim: reading trace source") {
		t.Errorf("err = %v, want a wrapped trace.ErrBadFormat", err)
	}
}

// TestRunSourceScaled checks that a scaled workload simulates cleanly and
// multiplies the execution count, and that scale 1 is the identity.
func TestRunSourceScaled(t *testing.T) {
	r := mustRunner(t)
	app, _ := workload.ByName("nedit")
	pol := tpPolicy(10 * trace.Second)

	base, err := r.RunSource(app.Stream(7), pol)
	if err != nil {
		t.Fatal(err)
	}
	one, err := r.RunSource(trace.Scale(app.Stream(7), 1), pol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, base) {
		t.Error("scale 1 result differs from unscaled")
	}
	three, err := r.RunSource(trace.Scale(app.Stream(7), 3), pol)
	if err != nil {
		t.Fatal(err)
	}
	if three.Executions != 3*base.Executions {
		t.Errorf("scaled executions = %d, want %d", three.Executions, 3*base.Executions)
	}
	if three.TotalIOs != 3*base.TotalIOs {
		t.Errorf("scaled TotalIOs = %d, want %d (warp preserves the I/O structure)", three.TotalIOs, 3*base.TotalIOs)
	}
	if three.SimTime <= base.SimTime*3-trace.Second {
		// Later passes stretch timestamps, so total simulated time grows
		// slightly faster than linearly.
		t.Errorf("scaled SimTime = %v vs base %v: warp should stretch later passes", three.SimTime, base.SimTime)
	}
}
