package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
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

// parallelSource returns a BlockSource over r that decodes on workers
// goroutines under pushdown predicate p, checked by noLeaks.
func parallelSource(t testing.TB, r io.Reader, workers int, p Predicate) Source {
	t.Helper()
	bs := NewBlockSource(r)
	bs.SetPredicate(p)
	bs.SetWorkers(workers)
	return noLeaks(t, bs)
}

// leakCheckSource fails its test when a NextExec or Reset returns with
// more goroutines running than when the source was opened: a source that
// decodes in parallel must join its helpers before it returns.
type leakCheckSource struct {
	Source
	t    testing.TB
	base int
}

// noLeaks wraps src in a leakCheckSource whose baseline is the goroutine
// count now.
func noLeaks(t testing.TB, src Source) Source {
	return &leakCheckSource{Source: src, t: t, base: runtime.NumGoroutine()}
}

func (s *leakCheckSource) NextExec() (string, int, bool) {
	app, exec, ok := s.Source.NextExec()
	s.check("NextExec")
	return app, exec, ok
}

func (s *leakCheckSource) Reset() error {
	err := s.Source.Reset()
	s.check("Reset")
	return err
}

// check allows a helper that has already signalled its WaitGroup up to a
// second to finish exiting, then compares the count with the baseline.
func (s *leakCheckSource) check(op string) {
	s.t.Helper()
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > s.base && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > s.base {
		buf := make([]byte, 64<<10)
		buf = buf[:runtime.Stack(buf, true)]
		s.t.Fatalf("%d goroutines after %s, %d when the source was opened:\n%s", n, op, s.base, buf)
	}
}

// TestParallelDifferential decodes the same streams sequentially and in
// parallel batches at several worker counts; the %+v-rendered event
// streams must match byte for byte.
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
		for _, workers := range []int{2, 4, 8} {
			got, gotErr := drainAll(parallelSource(t, bytes.NewReader(data), workers, Predicate{}))
			if gotErr != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, gotErr)
			}
			if got != want {
				t.Fatalf("%s workers=%d: stream mismatch\nwant:\n%s\ngot:\n%s", name, workers, want, got)
			}
		}
	}
}

// TestParallelAppendExec collects a multi-block file through parallel
// decode and checks it against the sequential BlockSource.
func TestParallelAppendExec(t *testing.T) {
	data := encodeIndexed(t, 16, seedTraceV2())
	want, err := Collect(NewBlockSource(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(parallelSource(t, bytes.NewReader(data), 4, Predicate{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || !tracesEqual(want[0], got[0]) {
		t.Fatal("parallel Collect mismatch")
	}
}

// TestParallelReset replays the same stream through one source after a
// full drain and after a Reset mid-stream, with a batch still unserved.
func TestParallelReset(t *testing.T) {
	b := seedTraceV2()
	b.App, b.Execution = "other", 5
	data := encodeIndexed(t, 1, seedTraceV2(), b, seedTraceV2())
	src := parallelSource(t, bytes.NewReader(data), 4, Predicate{})
	first, err := drainAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	second, err := drainAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if first != second || first == "" {
		t.Fatal("Reset replay mismatch")
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := src.NextExec(); !ok {
		t.Fatalf("NextExec after Reset: %v", src.Err())
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	third, err := drainAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if third != first {
		t.Fatal("replay after a mid-stream Reset mismatch")
	}
}

// TestParallelAbandoned drops sources mid-stream, with executions of a
// batch still unserved and no Close: no goroutine may outlive the
// NextExec calls made, so there is nothing to stop.
func TestParallelAbandoned(t *testing.T) {
	b := seedTraceV2()
	b.App, b.Execution = "other", 5
	data := encodeIndexed(t, 1, seedTraceV2(), b, seedTraceV2())
	base := runtime.NumGoroutine()
	for _, steps := range []int{0, 1, 2} {
		src := parallelSource(t, bytes.NewReader(data), 4, Predicate{})
		for i := 0; i < steps; i++ {
			if _, _, ok := src.NextExec(); !ok {
				t.Fatalf("NextExec %d failed: %v", i, src.Err())
			}
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after abandoning the sources, %d before", n, base)
	}
}

// TestParallelErrorParity corrupts streams and requires parallel decode,
// at every worker count, to serve the same executions as the sequential
// decoder and then fail with exactly its error.
func TestParallelErrorParity(t *testing.T) {
	b := seedTraceV2()
	b.App, b.Execution = "other", 5
	multi := encodeIndexed(t, 8, seedTraceV2(), b, seedTraceV2())
	check := func(name string, bad []byte) {
		t.Helper()
		want, wantErr := drainAll(NewBlockSource(bytes.NewReader(bad)))
		for _, workers := range []int{2, 4, 8} {
			got, gotErr := drainAll(parallelSource(t, bytes.NewReader(bad), workers, Predicate{}))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("%s workers=%d: served %d bytes then %v; sequential served %d then %v",
					name, workers, len(got), gotErr, len(want), wantErr)
			}
		}
	}

	// One payload flip: a CRC failure mid-execution.
	data := encodeV2(t, seedTraceV2(), 16)
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if _, err := drainAll(NewBlockSource(bytes.NewReader(bad))); err == nil {
		t.Fatal("flip did not corrupt the stream")
	}
	check("flip", bad)

	// Every byte of a multi-execution file flipped in turn: decode
	// errors, structural errors and index damage at every position. The
	// executions served before the error are counted, not rendered.
	for i := range multi {
		bad := append([]byte(nil), multi...)
		bad[i] ^= 0x40
		wantExecs, wantErr := countExecs(NewBlockSource(bytes.NewReader(bad)))
		for _, workers := range []int{2, 4, 8} {
			gotExecs, gotErr := countExecs(parallelSource(t, bytes.NewReader(bad), workers, Predicate{}))
			if gotExecs != wantExecs || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("flip %d workers=%d: served %d executions then %v; sequential served %d then %v",
					i, workers, gotExecs, gotErr, wantExecs, wantErr)
			}
		}
	}

	// A checksum failure in block 0 and a truncation later in the same
	// execution, so in the same batch: the earlier block's error wins.
	bad = append([]byte(nil), data[:3*len(data)/4]...)
	bad[60] ^= 0x40
	_, err := drainAll(NewBlockSource(bytes.NewReader(bad)))
	if err == nil || !strings.Contains(err.Error(), "execution 2 block 0: checksum mismatch") {
		t.Fatalf("the early flip no longer fails block 0's checksum: %v", err)
	}
	check("flip then truncation", bad)
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

		for _, workers := range []int{2, 4, 8} {
			got, err = drainAll(FilterEvents(parallelSource(t, bytes.NewReader(data), workers, p), p))
			if err != nil {
				t.Fatalf("pred %d workers=%d: parallel pushdown: %v", i, workers, err)
			}
			if got != want {
				t.Fatalf("pred %d workers=%d: parallel pushdown mismatch\nwant:\n%s\ngot:\n%s", i, workers, want, got)
			}
		}
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
	got, err = drainAll(FilterEvents(parallelSource(t, par, 2, p), p))
	if err != nil {
		t.Fatal(err)
	}
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
	for _, workers := range []int{0, 1, 4, -1} {
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
