package workload

import (
	"reflect"
	"testing"

	"pcapsim/internal/trace"
)

const streamTestSeed = 20040214

func TestStreamMatchesTraces(t *testing.T) {
	for _, app := range Apps() {
		want := app.Traces(streamTestSeed)
		got, err := trace.Collect(app.Stream(streamTestSeed))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: streamed %d executions, want %d", app.Name, len(got), len(want))
		}
		for i := range got {
			if got[i].App != want[i].App || got[i].Execution != want[i].Execution {
				t.Errorf("%s exec %d: header %s/%d, want %s/%d",
					app.Name, i, got[i].App, got[i].Execution, want[i].App, want[i].Execution)
			}
			if !reflect.DeepEqual(got[i].Events, want[i].Events) {
				t.Errorf("%s exec %d: streamed events differ from Traces", app.Name, i)
			}
		}
	}
}

func TestStreamResetReplaysIdentically(t *testing.T) {
	app := Apps()[0]
	s := app.Stream(streamTestSeed)
	first, err := trace.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	second, err := trace.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("replay after Reset differs from first pass")
	}
}

func TestStreamRecyclesBuffer(t *testing.T) {
	app := Apps()[0]
	if app.Executions < 2 {
		t.Skip("needs a multi-execution app")
	}
	s := app.Stream(streamTestSeed)
	if _, _, ok := s.NextExec(); !ok {
		t.Fatal("NextExec failed")
	}
	firstCap := cap(s.cur)
	for i := 1; i < app.Executions; i++ {
		if _, _, ok := s.NextExec(); !ok {
			t.Fatalf("NextExec %d failed", i)
		}
		// Buffer capacity only ever grows to the largest single execution;
		// it is never reallocated when the next execution fits.
		if len(s.cur) <= firstCap && cap(s.cur) < firstCap {
			t.Errorf("execution %d shrank the recycled buffer: cap %d < %d", i, cap(s.cur), firstCap)
		}
	}
}

func TestStreamExecEvents(t *testing.T) {
	app := Apps()[0]
	s := app.Stream(streamTestSeed)
	if _, _, ok := s.NextExec(); !ok {
		t.Fatal("NextExec failed")
	}
	events := s.ExecEvents()
	want := app.Trace(streamTestSeed, 0).Events
	if !reflect.DeepEqual(events, want) {
		t.Error("ExecEvents differs from Trace")
	}
	if again := s.ExecEvents(); &again[0] != &events[0] {
		t.Error("ExecEvents should lend the recycled buffer, not a copy")
	}
}

func TestCacheSourcePinnedMode(t *testing.T) {
	c := NewTraceCache()
	app := Apps()[1]
	got, err := trace.Collect(c.Source(app, streamTestSeed))
	if err != nil {
		t.Fatal(err)
	}
	want := app.Traces(streamTestSeed)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache source yielded %d executions unlike App.Traces' %d", len(got), len(want))
	}
	if c.Generations() != int64(app.Executions) {
		t.Errorf("pinned mode generated %d executions, want %d (each once, shared)", c.Generations(), app.Executions)
	}
	// A second source shares the same pinned generation.
	if _, err := trace.Collect(c.Source(app, streamTestSeed)); err != nil {
		t.Fatal(err)
	}
	if c.Generations() != int64(app.Executions) {
		t.Errorf("second source regenerated (gens=%d, want %d)", c.Generations(), app.Executions)
	}
}
