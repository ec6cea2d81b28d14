package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// mkTrace builds a small valid trace for source tests.
func mkTrace(app string, exec int, n int) *Trace {
	t := &Trace{App: app, Execution: exec}
	for i := 0; i < n; i++ {
		t.Events = append(t.Events, Event{
			Time: Time(i) * Millisecond, Pid: 1, Kind: KindIO,
			Access: AccessRead, PC: 0x1000 + PC(i), FD: 3, Block: int64(i), Size: 4096,
		})
	}
	return t
}

// collectSource drains a source into traces, failing the test on error.
func collectSource(t *testing.T, src Source) []*Trace {
	t.Helper()
	out, err := Collect(src)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return out
}

func TestSliceSourceRoundTrip(t *testing.T) {
	traces := []*Trace{mkTrace("a", 0, 3), mkTrace("a", 1, 0), mkTrace("b", 2, 5)}
	src := NewSliceSource(traces...)
	got := collectSource(t, src)
	if len(got) != 3 {
		t.Fatalf("got %d executions, want 3", len(got))
	}
	for i, tr := range got {
		if tr.App != traces[i].App || tr.Execution != traces[i].Execution {
			t.Errorf("exec %d header = %s/%d, want %s/%d", i, tr.App, tr.Execution, traces[i].App, traces[i].Execution)
		}
		if !reflect.DeepEqual(tr.Events, traces[i].Events) && len(traces[i].Events) > 0 {
			t.Errorf("exec %d events differ", i)
		}
	}
	// Reset replays identically.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	again := collectSource(t, src)
	if len(again) != len(got) {
		t.Fatalf("after reset: %d executions, want %d", len(again), len(got))
	}
}

func TestSliceSourceExecEvents(t *testing.T) {
	tr := mkTrace("a", 0, 4)
	src := NewSliceSource(tr)
	if _, _, ok := src.NextExec(); !ok {
		t.Fatal("NextExec failed")
	}
	// Consume one event, then take the rest as a slice.
	if _, ok := src.Next(); !ok {
		t.Fatal("Next failed")
	}
	rest := src.ExecEvents()
	if len(rest) != 3 {
		t.Fatalf("ExecEvents returned %d events, want 3", len(rest))
	}
	if &rest[0] != &tr.Events[1] {
		t.Error("ExecEvents should share the trace's backing array")
	}
	if _, ok := src.Next(); ok {
		t.Error("Next should report drained after ExecEvents")
	}
}

func TestMergeSourcesMatchesSliceMerge(t *testing.T) {
	a := &Trace{App: "a", Execution: 0, Events: []Event{
		{Time: 0, Pid: 1, Kind: KindIO, Access: AccessRead, PC: 1, Size: 1},
		{Time: 5, Pid: 1, Kind: KindIO, Access: AccessRead, PC: 2, Size: 1},
		{Time: 5, Pid: 1, Kind: KindIO, Access: AccessRead, PC: 3, Size: 1},
	}}
	b := &Trace{App: "b", Execution: 0, Events: []Event{
		{Time: 3, Pid: 2, Kind: KindIO, Access: AccessRead, PC: 4, Size: 1},
		{Time: 5, Pid: 2, Kind: KindIO, Access: AccessRead, PC: 5, Size: 1},
	}}
	want := Merge(a.Events, b.Events)
	src := MergeSources(NewSliceSource(a), NewSliceSource(b))
	app, _, ok := src.NextExec()
	if !ok || app != "a" {
		t.Fatalf("NextExec = %q, %v; want a, true", app, ok)
	}
	var got []Event
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, e)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged stream differs from slice Merge:\n got %v\nwant %v", got, want)
	}
}

func TestMergeSourcesMismatchedExecutions(t *testing.T) {
	src := MergeSources(
		NewSliceSource(mkTrace("a", 0, 1), mkTrace("a", 1, 1)),
		NewSliceSource(mkTrace("b", 0, 1)),
	)
	n := 0
	for {
		_, _, ok := src.NextExec()
		if !ok {
			break
		}
		n++
		for {
			if _, ok := src.Next(); !ok {
				break
			}
		}
	}
	if src.Err() == nil {
		t.Error("mismatched execution counts should surface via Err")
	}
}

func TestLimit(t *testing.T) {
	src := Limit(NewSliceSource(mkTrace("a", 0, 5), mkTrace("a", 1, 1)), 2)
	got := collectSource(t, src)
	if len(got) != 2 {
		t.Fatalf("got %d executions, want 2", len(got))
	}
	if len(got[0].Events) != 2 || len(got[1].Events) != 1 {
		t.Errorf("event counts = %d, %d; want 2, 1", len(got[0].Events), len(got[1].Events))
	}
}

func TestLimitExecs(t *testing.T) {
	traces := []*Trace{mkTrace("a", 0, 5), mkTrace("a", 1, 3), mkTrace("a", 2, 4)}
	src := LimitExecs(NewSliceSource(traces...), 2)
	got := collectSource(t, src)
	if len(got) != 2 {
		t.Fatalf("got %d executions, want 2", len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Events, traces[i].Events) {
			t.Errorf("exec %d events differ from the unlimited source", i)
		}
	}
	// Reset restores the full budget.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if again := collectSource(t, src); len(again) != 2 {
		t.Fatalf("after reset: %d executions, want 2", len(again))
	}
	// The batch path delivers the same events as the pull path.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := src.NextExec(); !ok {
		t.Fatal("NextExec failed after reset")
	}
	batch := src.(ExecAppender).AppendExec(nil)
	if !reflect.DeepEqual(batch, traces[0].Events) {
		t.Errorf("AppendExec differs from the source events")
	}
	// Zero and negative caps yield an empty workload.
	for _, n := range []int{0, -1} {
		if got := collectSource(t, LimitExecs(NewSliceSource(traces...), n)); len(got) != 0 {
			t.Errorf("LimitExecs(%d): %d executions, want 0", n, len(got))
		}
	}
}

func TestScaleIdentityAtOne(t *testing.T) {
	src := NewSliceSource(mkTrace("a", 0, 2))
	if Scale(src, 1) != Source(src) {
		t.Error("Scale(src, 1) must return src unchanged")
	}
	if Scale(src, 0) != Source(src) {
		t.Error("Scale(src, 0) must return src unchanged")
	}
}

func TestScaleRepeatsAndWarps(t *testing.T) {
	traces := []*Trace{mkTrace("a", 0, 3), mkTrace("a", 1, 2)}
	src := Scale(NewSliceSource(traces...), 3)
	got := collectSource(t, src)
	if len(got) != 6 {
		t.Fatalf("got %d executions, want 6", len(got))
	}
	for i, tr := range got {
		if tr.Execution != i {
			t.Errorf("execution %d renumbered as %d", i, tr.Execution)
		}
		base := traces[i%2]
		if tr.App != base.App || len(tr.Events) != len(base.Events) {
			t.Fatalf("execution %d does not repeat %s/%d", i, base.App, base.Execution)
		}
		pass := i / 2
		for j, e := range tr.Events {
			want := warpTime(base.Events[j].Time, pass)
			if e.Time != want {
				t.Errorf("exec %d event %d time = %v, want %v", i, j, e.Time, want)
			}
			// Everything but the timestamp is preserved.
			we := base.Events[j]
			we.Time = e.Time
			if e != we {
				t.Errorf("exec %d event %d mutated beyond time: %v vs %v", i, j, e, we)
			}
		}
		// Warped streams stay in non-decreasing time order.
		for j := 1; j < len(tr.Events); j++ {
			if tr.Events[j].Time < tr.Events[j-1].Time {
				t.Errorf("exec %d events out of order after warp", i)
			}
		}
	}
	// Pass 0 is the identity; later passes stretch.
	if got[0].Events[1].Time != traces[0].Events[1].Time {
		t.Error("pass 0 must not warp timestamps")
	}
	if got[4].Events[2].Time <= traces[0].Events[2].Time {
		t.Error("pass 2 should stretch timestamps")
	}
}

func TestScaleReset(t *testing.T) {
	src := Scale(NewSliceSource(mkTrace("a", 0, 2)), 2)
	first := collectSource(t, src)
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	second := collectSource(t, src)
	if !reflect.DeepEqual(first, second) {
		t.Error("Scale replay after Reset differs")
	}
}

func TestDecoderStreamsConcatenatedTraces(t *testing.T) {
	traces := []*Trace{mkTrace("moz", 0, 4), mkTrace("moz", 1, 0), mkTrace("ned", 7, 2)}
	var buf bytes.Buffer
	for _, tr := range traces {
		if err := WriteColumnar(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	d := NewBlockSource(bytes.NewReader(buf.Bytes()))
	got := collectSource(t, d)
	if len(got) != 3 {
		t.Fatalf("decoded %d executions, want 3", len(got))
	}
	for i, tr := range got {
		want := traces[i]
		if tr.App != want.App || tr.Execution != want.Execution || len(tr.Events) != len(want.Events) {
			t.Fatalf("execution %d = %s/%d (%d events), want %s/%d (%d)",
				i, tr.App, tr.Execution, len(tr.Events), want.App, want.Execution, len(want.Events))
		}
		for j := range tr.Events {
			if tr.Events[j] != want.Events[j] {
				t.Errorf("execution %d event %d = %v, want %v", i, j, tr.Events[j], want.Events[j])
			}
		}
	}
	// Seekable input: Reset replays the whole stream.
	if err := d.Reset(); err != nil {
		t.Fatal(err)
	}
	if again := collectSource(t, d); len(again) != 3 {
		t.Fatalf("after reset: %d executions, want 3", len(again))
	}
}

func TestDecoderTruncatedStream(t *testing.T) {
	tr := mkTrace("a", 0, 10)
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	d := NewBlockSource(bytes.NewReader(cut))
	if _, _, ok := d.NextExec(); !ok {
		t.Fatal("NextExec should succeed on an intact header")
	}
	n := 0
	for {
		if _, ok := d.Next(); !ok {
			break
		}
		n++
	}
	if d.Err() == nil {
		t.Fatal("truncated stream must surface an error")
	}
	if !errors.Is(d.Err(), ErrBadFormat) {
		t.Errorf("error %v should wrap ErrBadFormat", d.Err())
	}
	if n >= 10 {
		t.Errorf("decoded %d events from a truncated stream of 10", n)
	}
}

func TestDecoderEmptyInputCleanEnd(t *testing.T) {
	d := NewBlockSource(bytes.NewReader(nil))
	if _, _, ok := d.NextExec(); ok {
		t.Fatal("NextExec on empty input should report exhaustion")
	}
	if err := d.Err(); err != nil {
		t.Fatalf("empty input is a clean (zero-execution) stream, got %v", err)
	}
}

func TestDecoderSkipsUndrainedExecution(t *testing.T) {
	var buf bytes.Buffer
	for _, tr := range []*Trace{mkTrace("a", 0, 5), mkTrace("b", 1, 2)} {
		if err := WriteColumnar(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	d := NewBlockSource(bytes.NewReader(buf.Bytes()))
	if _, _, ok := d.NextExec(); !ok {
		t.Fatal("first NextExec failed")
	}
	d.Next() // consume one of five, then skip ahead
	app, exec, ok := d.NextExec()
	if !ok || app != "b" || exec != 1 {
		t.Fatalf("skip-ahead NextExec = %s/%d/%v, want b/1/true", app, exec, ok)
	}
	if got := collectEvents(d); len(got) != 2 {
		t.Errorf("second execution yielded %d events, want 2", len(got))
	}
}

func collectEvents(src Source) []Event {
	var out []Event
	for {
		e, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestEncoderCountEnforced(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewBlockEncoder(&buf, "a", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Event{Kind: KindExit, Pid: 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err == nil {
		t.Error("Close with missing events should fail")
	}
	enc2, _ := NewBlockEncoder(&buf, "a", 0, 0)
	if err := enc2.Write(Event{Kind: KindExit, Pid: 1}); err == nil {
		t.Error("Write past the declared count should fail")
	}
}

func TestTextDecoderSingleTrace(t *testing.T) {
	tr := mkTrace("xemacs", 4, 6)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d := NewTextDecoder(bytes.NewReader(buf.Bytes()))
	got := collectSource(t, d)
	if len(got) != 1 {
		t.Fatalf("decoded %d executions, want 1", len(got))
	}
	if !tracesEqual(got[0], tr) {
		t.Errorf("decoded %s/%d with %d events, want %s/%d with %d",
			got[0].App, got[0].Execution, len(got[0].Events), tr.App, tr.Execution, len(tr.Events))
	}
}

func TestTextDecoderConcatenated(t *testing.T) {
	var buf bytes.Buffer
	for _, tr := range []*Trace{mkTrace("a", 0, 2), mkTrace("b", 3, 1)} {
		if err := WriteText(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	d := NewTextDecoder(bytes.NewReader(buf.Bytes()))
	got := collectSource(t, d)
	if len(got) != 2 {
		t.Fatalf("decoded %d executions, want 2", len(got))
	}
	if got[0].App != "a" || got[1].App != "b" || got[1].Execution != 3 {
		t.Errorf("headers = %s/%d, %s/%d", got[0].App, got[0].Execution, got[1].App, got[1].Execution)
	}
	if len(got[0].Events) != 2 || len(got[1].Events) != 1 {
		t.Errorf("event counts = %d, %d; want 2, 1", len(got[0].Events), len(got[1].Events))
	}
}

func TestTextDecoderBadLine(t *testing.T) {
	d := NewTextDecoder(strings.NewReader("# pcap-trace v1\n# app a exec 0\nnot an event\n"))
	for {
		_, _, ok := d.NextExec()
		if !ok {
			break
		}
		for {
			if _, ok := d.Next(); !ok {
				break
			}
		}
	}
	if d.Err() == nil {
		t.Error("malformed event line should surface via Err")
	}
}

func TestValidatorMatchesTraceValidate(t *testing.T) {
	valid := mkTrace("a", 0, 4)
	valid.Events = append(valid.Events,
		Event{Time: 10 * Millisecond, Pid: 1, Kind: KindFork, Child: 2},
		Event{Time: 11 * Millisecond, Pid: 2, Kind: KindIO, Access: AccessRead, PC: 9, Size: 1},
		Event{Time: 12 * Millisecond, Pid: 2, Kind: KindExit},
	)
	invalid := []*Trace{
		{App: "x", Events: []Event{{Time: 5}, {Time: 3}}},                                                 // time order
		{App: "x", Events: []Event{{Time: 1, Pid: 3, Kind: KindFork, Child: 3}}},                          // self fork
		{App: "x", Events: []Event{{Time: 1, Pid: 3, Kind: KindIO, Access: AccessRead}}},                  // zero PC
		{App: "x", Events: []Event{{Time: 1, Pid: 3, Kind: KindIO, PC: 1, Size: -1}}},                     // negative size
		{App: "x", Execution: 2, Events: []Event{{Time: 1, Pid: 3, Kind: Kind(9)}}},                       // unknown kind
		{App: "x", Events: []Event{{Time: 1, Pid: 3, Kind: KindExit}, {Time: 2, Pid: 3, Kind: KindExit}}}, // double exit
	}
	for _, tr := range append([]*Trace{valid}, invalid...) {
		want := tr.Validate()
		v := NewValidator(tr.App, tr.Execution)
		var got error
		for _, e := range tr.Events {
			if got = v.Event(e); got != nil {
				break
			}
		}
		switch {
		case (want == nil) != (got == nil):
			t.Errorf("trace %v: Validate = %v, Validator = %v", tr.Events, want, got)
		case want != nil && want.Error() != got.Error():
			t.Errorf("message drift: Validate %q vs Validator %q", want, got)
		}
	}
}

func TestCollectRoundTripsSliceSource(t *testing.T) {
	traces := []*Trace{mkTrace("a", 0, 3), mkTrace("b", 1, 2)}
	got, err := Collect(NewSliceSource(traces...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].App != "a" || got[1].App != "b" {
		t.Fatalf("collect mismatch: %v", got)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Events, traces[i].Events) {
			t.Errorf("execution %d events differ", i)
		}
	}
}
