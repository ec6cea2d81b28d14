package trace

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"slices"
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
	events := src.ExecEvents()
	if len(events) != 4 {
		t.Fatalf("ExecEvents returned %d events, want 4", len(events))
	}
	if &events[0] != &tr.Events[0] {
		t.Error("ExecEvents should share the trace's backing array")
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
	// The surviving executions' slices pass through uncopied.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := src.NextExec(); !ok {
		t.Fatal("NextExec failed after reset")
	}
	if events := src.ExecEvents(); &events[0] != &traces[0].Events[0] {
		t.Errorf("LimitExecs copied the inner source's slice")
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

// TestDecoderTruncatedStream: a truncated block fails the NextExec that
// loads its execution, so no partial execution is delivered.
func TestDecoderTruncatedStream(t *testing.T) {
	tr := mkTrace("a", 0, 10)
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	d := NewBlockSource(bytes.NewReader(cut))
	if _, _, ok := d.NextExec(); ok {
		t.Fatalf("NextExec delivered %d events of a truncated execution", len(d.ExecEvents()))
	}
	if d.Err() == nil {
		t.Fatal("truncated stream must surface an error")
	}
	if !errors.Is(d.Err(), ErrBadFormat) {
		t.Errorf("error %v should wrap ErrBadFormat", d.Err())
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

// TestDecoderSkipsUndrainedExecution: an execution whose events are never
// read does not disturb the next one.
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
	app, exec, ok := d.NextExec()
	if !ok || app != "b" || exec != 1 {
		t.Fatalf("skip-ahead NextExec = %s/%d/%v, want b/1/true", app, exec, ok)
	}
	if got := d.ExecEvents(); len(got) != 2 {
		t.Errorf("second execution yielded %d events, want 2", len(got))
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
	if _, _, ok := d.NextExec(); ok {
		t.Error("an execution with a malformed event line was delivered")
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

// TestSourceContract holds every Source implementation to the one read
// path: NextExec loads an execution whole, ExecEvents lends it as one
// slice that stays the same and unchanged until the next NextExec, and
// Reset replays the workload identically. A source that lends pinned
// traces lends ExecEvents' own backing array, LimitExecs forwards them,
// and Scale(n > 1) and the decoding sources lend none.
func TestSourceContract(t *testing.T) {
	b := seedTraceV2()
	b.App, b.Execution = "other", 5
	ref := []*Trace{seedTraceV2(), {App: "empty", Execution: 1}, b}
	v2 := encodeIndexed(t, 16, ref...)
	var text bytes.Buffer
	for _, tr := range ref {
		if err := WriteText(&text, tr); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/ref.pct2"
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	pred := Predicate{Pid: 2}
	var filtered, scaled []*Trace
	for _, tr := range ref {
		f := &Trace{App: tr.App, Execution: tr.Execution}
		for _, e := range tr.Events {
			if pred.MatchEvent(e) {
				f.Events = append(f.Events, e)
			}
		}
		filtered = append(filtered, f)
	}
	for pass := 0; pass < 2; pass++ {
		for _, tr := range ref {
			s := &Trace{App: tr.App, Execution: len(scaled)}
			for _, e := range tr.Events {
				e.Time = warpTime(e.Time, pass)
				s.Events = append(s.Events, e)
			}
			scaled = append(scaled, s)
		}
	}

	// pinned marks the sources that lend each execution as a pinned
	// trace (Pinned); every other source must lend none.
	cases := []struct {
		name   string
		open   func(t *testing.T) Source
		want   []*Trace
		pinned bool
	}{
		{"SliceSource", func(*testing.T) Source { return NewSliceSource(ref...) }, ref, false},
		{"TextDecoder", func(*testing.T) Source { return NewTextDecoder(bytes.NewReader(text.Bytes())) }, ref, false},
		{"BlockSource", func(*testing.T) Source { return NewBlockSource(bytes.NewReader(v2)) }, ref, false},
		{"BlockSource-workers2", func(t *testing.T) Source { return parallelSource(t, bytes.NewReader(v2), 2, Predicate{}) }, ref, false},
		{"BlockSource-workers4", func(t *testing.T) Source { return parallelSource(t, bytes.NewReader(v2), 4, Predicate{}) }, ref, false},
		{"FilterEvents", func(*testing.T) Source { return FilterEvents(NewBlockSource(bytes.NewReader(v2)), pred) }, filtered, false},
		{"LimitExecs", func(*testing.T) Source { return LimitExecs(NewSliceSource(ref...), 2) }, ref[:2], false},
		{"Scale", func(*testing.T) Source { return Scale(NewSliceSource(ref...), 2) }, scaled, false},
		{"OpenTraceFileOpts", func(t *testing.T) Source {
			fs, err := OpenTraceFileOpts(path, OpenOptions{Workers: 2, Pred: pred})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs
		}, filtered, false},
		{"Pinned", func(*testing.T) Source { return newPinnedSource(ref...) }, ref, true},
		{"LimitExecs-Pinned", func(*testing.T) Source { return LimitExecs(newPinnedSource(ref...), 2) }, ref[:2], true},
		{"Scale-Pinned", func(*testing.T) Source { return Scale(newPinnedSource(ref...), 2) }, scaled, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := c.open(t)
			for pass := 0; pass < 2; pass++ {
				if pass > 0 {
					if err := src.Reset(); err != nil {
						t.Fatal(err)
					}
				}
				for i, want := range c.want {
					app, exec, ok := src.NextExec()
					if !ok {
						t.Fatalf("pass %d: NextExec %d failed: %v", pass, i, src.Err())
					}
					events := src.ExecEvents()
					got := &Trace{App: app, Execution: exec, Events: slices.Clone(events)}
					if !tracesEqual(got, want) {
						t.Fatalf("pass %d: execution %d is %s/%d with %d events, want %s/%d with %d",
							pass, i, app, exec, len(events), want.App, want.Execution, len(want.Events))
					}
					again := src.ExecEvents()
					if len(again) != len(events) || len(events) > 0 && &again[0] != &events[0] {
						t.Fatalf("pass %d: execution %d: ExecEvents lent a different slice on a second call", pass, i)
					}
					if !slices.Equal(again, got.Events) {
						t.Fatalf("pass %d: execution %d: the lent slice changed before the next NextExec", pass, i)
					}
					switch p := PinnedTrace(src); {
					case !c.pinned && p != nil:
						t.Fatalf("pass %d: execution %d: lent a pinned trace", pass, i)
					case c.pinned && (p == nil || p.App != app || p.Execution != exec ||
						len(p.Events) != len(events) || len(events) > 0 && &p.Events[0] != &events[0]):
						t.Fatalf("pass %d: execution %d: pinned trace %v does not lend ExecEvents' backing array", pass, i, p)
					}
				}
				if _, _, ok := src.NextExec(); ok {
					t.Fatalf("pass %d: more than %d executions", pass, len(c.want))
				}
				if err := src.Err(); err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
			}
		})
	}

	// Truncated v2 input fails at the same execution, with the same
	// error, sequentially and in parallel.
	for _, n := range []int{len(v2) / 3, len(v2) / 2, 3 * len(v2) / 4, len(v2) - 3} {
		cut := v2[:n]
		wantExecs, wantErr := countExecs(NewBlockSource(bytes.NewReader(cut)))
		if wantErr == nil {
			t.Fatalf("cut at %d: BlockSource decoded without error", n)
		}
		for _, workers := range []int{2, 4, 8} {
			gotExecs, gotErr := countExecs(parallelSource(t, bytes.NewReader(cut), workers, Predicate{}))
			if gotExecs != wantExecs || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("cut at %d, %d workers: failed after %d executions with %v; BlockSource after %d with %v",
					n, workers, gotExecs, gotErr, wantExecs, wantErr)
			}
		}
	}
}

// pinnedSource is a SliceSource that lends its traces as pinned: the
// trace cache's contract, without the cache.
type pinnedSource struct{ *SliceSource }

func newPinnedSource(traces ...*Trace) pinnedSource {
	return pinnedSource{NewSliceSource(traces...)}
}

func (p pinnedSource) PinnedTrace() *Trace {
	if p.cur < 0 || p.cur >= len(p.traces) {
		return nil
	}
	return p.traces[p.cur]
}

// countExecs pulls every execution of src and reports how many loaded
// before the stream ended, with its error.
func countExecs(src Source) (int, error) {
	n := 0
	for {
		if _, _, ok := src.NextExec(); !ok {
			return n, src.Err()
		}
		n++
	}
}
