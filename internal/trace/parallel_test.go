package trace

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// encodeIndexed encodes traces as one v2 file with an index footer,
// using the given block granularity (0 = default).
func encodeIndexed(t testing.TB, blockEvents int, traces ...*Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	ib := NewIndexBuilder()
	for _, tr := range traces {
		enc, err := NewBlockEncoder(&buf, tr.App, tr.Execution, len(tr.Events))
		if err != nil {
			t.Fatal(err)
		}
		if blockEvents > 0 {
			if err := enc.SetBlockEvents(blockEvents); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.SetIndex(ib); err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Events {
			if err := enc.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ib.WriteFooter(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainAll fully drains a source into per-execution traces plus the
// terminal error, formatting events with %+v for differential compares.
func drainAll(src Source) (string, error) {
	var sb strings.Builder
	for {
		app, exec, ok := src.NextExec()
		if !ok {
			break
		}
		fmt.Fprintf(&sb, "exec %s/%d\n", app, exec)
		for _, e := range src.ExecEvents() {
			fmt.Fprintf(&sb, "%+v\n", e)
		}
	}
	return sb.String(), src.Err()
}

// TestParallelDifferential decodes the same streams through the
// sequential BlockDecoder and the parallel pipeline at several worker
// counts; the %+v-rendered event streams must match byte for byte.
func TestParallelDifferential(t *testing.T) {
	a := seedTraceV2()
	b := seedTraceV2()
	b.App, b.Execution = "other", 5
	empty := &Trace{App: "empty", Execution: 1}
	files := map[string][]byte{
		"plain":       encodeV2(t, a, 16),
		"indexed":     encodeIndexed(t, 16, a, b),
		"empty-mid":   encodeIndexed(t, 8, a, empty, b),
		"empty-only":  encodeIndexed(t, 8, empty),
		"tiny-blocks": encodeIndexed(t, 1, a),
	}
	for name, data := range files {
		want, wantErr := drainAll(NewBlockSource(bytes.NewReader(data)))
		if wantErr != nil {
			t.Fatalf("%s: sequential: %v", name, wantErr)
		}
		for _, workers := range []int{1, 4, 8} {
			ps := NewParallelSource(bytes.NewReader(data), workers)
			got, gotErr := drainAll(ps)
			if gotErr != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, gotErr)
			}
			if got != want {
				t.Fatalf("%s workers=%d: stream mismatch\nwant:\n%s\ngot:\n%s", name, workers, want, got)
			}
			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParallelAppendExec collects a multi-block file through the
// parallel pipeline and checks it against the sequential BlockSource.
func TestParallelAppendExec(t *testing.T) {
	data := encodeIndexed(t, 16, seedTraceV2())
	want, err := Collect(NewBlockSource(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	ps := NewParallelSource(bytes.NewReader(data), 4)
	defer ps.Close()
	got, err := Collect(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || !tracesEqual(want[0], got[0]) {
		t.Fatal("parallel Collect mismatch")
	}
}

// TestParallelReset replays the same stream twice through one source.
func TestParallelReset(t *testing.T) {
	data := encodeIndexed(t, 16, seedTraceV2())
	ps := NewParallelSource(bytes.NewReader(data), 4)
	defer ps.Close()
	first, err := drainAll(ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Reset(); err != nil {
		t.Fatal(err)
	}
	second, err := drainAll(ps)
	if err != nil {
		t.Fatal(err)
	}
	if first != second || first == "" {
		t.Fatal("Reset replay mismatch")
	}
}

// TestParallelEarlyClose tears the pipeline down mid-stream, with
// executions still in flight; the test passes if nothing deadlocks or
// races.
func TestParallelEarlyClose(t *testing.T) {
	b := seedTraceV2()
	b.App, b.Execution = "other", 5
	data := encodeIndexed(t, 1, seedTraceV2(), b, seedTraceV2())
	for _, steps := range []int{0, 1, 2} {
		ps := NewParallelSource(bytes.NewReader(data), 4)
		for i := 0; i < steps; i++ {
			if _, _, ok := ps.NextExec(); !ok {
				t.Fatalf("NextExec %d failed", i)
			}
		}
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelErrorParity corrupts one byte of a block payload and
// requires the parallel pipeline to fail with exactly the sequential
// decoder's error.
func TestParallelErrorParity(t *testing.T) {
	data := encodeV2(t, seedTraceV2(), 16)
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	_, wantErr := drainAll(NewBlockSource(bytes.NewReader(bad)))
	if wantErr == nil {
		t.Skip("flip did not corrupt the stream")
	}
	for _, workers := range []int{1, 4} {
		ps := NewParallelSource(bytes.NewReader(bad), workers)
		_, gotErr := drainAll(ps)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: error mismatch\nwant: %v\ngot:  %v", workers, wantErr, gotErr)
		}
		ps.Close()
	}
}

// pushdownTrace spreads events over distinct time/pid/pc regions so
// per-block metadata actually discriminates.
func pushdownTrace() *Trace {
	t := &Trace{App: "push", Execution: 0}
	now := Time(0)
	for i := 0; i < 400; i++ {
		now += 500
		t.Events = append(t.Events, Event{
			Time:   now,
			Pid:    PID(1 + i/100), // four pid regions
			Kind:   KindIO,
			Access: AccessRead,
			PC:     PC(0x1000 + 0x100*(i/50)), // eight pc regions
			FD:     3,
			Block:  int64(i) * 8,
			Size:   4096,
		})
	}
	return t
}

// TestPushdownEquivalence checks predicate pushdown against the exact
// decode-then-drop reference: for every predicate, pushdown+filter must
// yield the same stream as filter alone.
func TestPushdownEquivalence(t *testing.T) {
	tr := pushdownTrace()
	data := encodeIndexed(t, 32, tr, seedTraceV2())
	preds := []Predicate{
		{},
		{From: 50_000, To: 120_000},
		{Pid: 3},
		{PCFrom: 0x1200, PCTo: 0x14ff},
		{From: 80_000, Pid: 2},
		{From: 1, To: 2}, // matches nothing
		{Pid: 99},
		{From: 50_000, To: 120_000, Pid: 2, PCFrom: 0x1000, PCTo: 0x1fff},
	}
	for i, p := range preds {
		want, err := drainAll(FilterEvents(NewBlockSource(bytes.NewReader(data)), p))
		if err != nil {
			t.Fatalf("pred %d: reference: %v", i, err)
		}

		bs := NewBlockSource(bytes.NewReader(data))
		if armed := bs.SetPredicate(p); armed == p.IsZero() {
			t.Fatalf("pred %d: SetPredicate armed=%v", i, armed)
		}
		got, err := drainAll(FilterEvents(bs, p))
		if err != nil {
			t.Fatalf("pred %d: pushdown: %v", i, err)
		}
		if got != want {
			t.Fatalf("pred %d: sequential pushdown mismatch\nwant:\n%s\ngot:\n%s", i, want, got)
		}

		ps := NewParallelSource(bytes.NewReader(data), 4)
		ps.SetPredicate(p)
		got, err = drainAll(FilterEvents(ps, p))
		if err != nil {
			t.Fatalf("pred %d: parallel pushdown: %v", i, err)
		}
		if got != want {
			t.Fatalf("pred %d: parallel pushdown mismatch\nwant:\n%s\ngot:\n%s", i, want, got)
		}
		ps.Close()
	}
}

// countingReader counts the bytes served through Read.
type countingReader struct {
	r *bytes.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Seek(off int64, whence int) (int64, error) { return c.r.Seek(off, whence) }

// TestPushdownReadsFewerBytes is the acceptance check that skipped
// blocks are never read: a narrow time slice of a many-block trace must
// read strictly fewer bytes than the full scan while producing the
// events of the filtered reference.
func TestPushdownReadsFewerBytes(t *testing.T) {
	tr := &Trace{App: "big", Execution: 0}
	now := Time(0)
	for i := 0; i < 50_000; i++ {
		now += 100
		tr.Events = append(tr.Events, Event{
			Time: now, Pid: 1, Kind: KindIO, Access: AccessRead,
			PC: PC(0x4000 + 8*(i%64)), FD: 3, Block: int64(i), Size: 4096,
		})
	}
	data := encodeIndexed(t, 512, tr)
	p := Predicate{From: 10_000, To: 60_000} // first ~600 events

	full := &countingReader{r: bytes.NewReader(data)}
	want, err := drainAll(FilterEvents(NewBlockSource(full), p))
	if err != nil {
		t.Fatal(err)
	}

	pushed := &countingReader{r: bytes.NewReader(data)}
	bs := NewBlockSource(pushed)
	if !bs.SetPredicate(p) {
		t.Fatal("SetPredicate did not arm pushdown")
	}
	got, err := drainAll(FilterEvents(bs, p))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("pushdown stream differs from filtered reference")
	}
	if want == "" {
		t.Fatal("predicate selected nothing; test is vacuous")
	}
	if pushed.n >= full.n {
		t.Fatalf("pushdown read %d bytes, full scan %d — expected strictly fewer", pushed.n, full.n)
	}
	t.Logf("pushdown read %d of %d bytes (%.1f%%)", pushed.n, full.n, 100*float64(pushed.n)/float64(full.n))

	par := &countingReader{r: bytes.NewReader(data)}
	ps := NewParallelSource(par, 2)
	ps.SetPredicate(p)
	got, err = drainAll(FilterEvents(ps, p))
	if err != nil {
		t.Fatal(err)
	}
	ps.Close()
	if got != want {
		t.Fatal("parallel pushdown stream differs from filtered reference")
	}
	if par.n >= full.n {
		t.Fatalf("parallel pushdown read %d bytes, full scan %d — expected strictly fewer", par.n, full.n)
	}
}

// TestIndexedFileBackwardCompatible: a footer-bearing file must decode
// identically through the plain sequential path (no predicate, no
// index awareness) — the footer is invisible to old readers.
func TestIndexedFileBackwardCompatible(t *testing.T) {
	tr := seedTraceV2()
	plain := encodeV2(t, tr, 16)
	indexed := encodeIndexed(t, 16, tr)
	if !bytes.HasPrefix(indexed, plain) {
		t.Fatal("indexed file does not extend the plain encoding")
	}
	want, err := drainAll(NewBlockSource(bytes.NewReader(plain)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainAll(NewBlockSource(bytes.NewReader(indexed)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("footer changed the decoded stream")
	}
}

// TestOpenTraceFileOpts drives the options path end to end through a
// real file: parallel decode, pushdown, and filtering.
func TestOpenTraceFileOpts(t *testing.T) {
	tr := pushdownTrace()
	data := encodeIndexed(t, 32, tr)
	path := t.TempDir() + "/push.v2"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p := Predicate{From: 50_000, To: 120_000}
	want, err := drainAll(FilterEvents(NewBlockSource(bytes.NewReader(data)), p))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		fs, err := OpenTraceFileOpts(path, OpenOptions{Workers: workers, Pred: p})
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainAll(fs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: filtered open mismatch", workers)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
