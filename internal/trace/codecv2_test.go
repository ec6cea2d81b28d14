package trace

import (
	"bytes"
	"strings"
	"testing"
)

// raceDetectorEnabled is flipped by race_test.go under `go test -race`.
var raceDetectorEnabled bool

// seedTraceV2 is a representative trace exercising every kind, negative
// FDs/blocks, PC locality and pid interleaving.
func seedTraceV2() *Trace {
	t := &Trace{App: "seed", Execution: 2}
	now := Time(0)
	for i := 0; i < 100; i++ {
		now += Time(1000 + i%7)
		switch {
		case i%17 == 3:
			t.Events = append(t.Events, Event{Time: now, Pid: PID(1 + i%3), Kind: KindFork, Child: PID(10 + i)})
		case i%23 == 7:
			t.Events = append(t.Events, Event{Time: now, Pid: PID(10 + i - 4), Kind: KindExit})
		default:
			t.Events = append(t.Events, Event{
				Time:   now,
				Pid:    PID(1 + i%3),
				Kind:   KindIO,
				Access: Access(i % 4),
				PC:     PC(0x1000 + 16*(i%5)),
				FD:     FD(3 - i%6), // includes negatives
				Block:  int64(1<<20 + i*8 - (i%11)*1000),
				Size:   int32(4096),
			})
		}
	}
	return t
}

func encodeV2(t testing.TB, tr *Trace, blockEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := NewBlockEncoder(&buf, tr.App, tr.Execution, len(tr.Events))
	if err != nil {
		t.Fatal(err)
	}
	if blockEvents > 0 {
		if err := enc.SetBlockEvents(blockEvents); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range tr.Events {
		if err := enc.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestColumnarRoundTrip(t *testing.T) {
	orig := seedTraceV2()
	for _, blockEvents := range []int{0, 1, 7, 64, 4096} {
		data := encodeV2(t, orig, blockEvents)
		got, err := Collect(NewBlockSource(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("blockEvents=%d: %v", blockEvents, err)
		}
		if len(got) != 1 || !tracesEqual(orig, got[0]) {
			t.Fatalf("blockEvents=%d: round trip mismatch", blockEvents)
		}
	}
}

func TestColumnarRoundTripEmpty(t *testing.T) {
	orig := &Trace{App: "empty", Execution: 0}
	data := encodeV2(t, orig, 0)
	src := NewBlockSource(bytes.NewReader(data))
	app, exec, ok := src.NextExec()
	if !ok || app != "empty" || exec != 0 {
		t.Fatalf("NextExec = %q, %d, %v", app, exec, ok)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("Next on empty execution returned an event")
	}
	if _, _, ok := src.NextExec(); ok {
		t.Fatal("second NextExec succeeded")
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestColumnarMultiExecution(t *testing.T) {
	a := seedTraceV2()
	b := seedTraceV2()
	b.App, b.Execution = "other", 5
	var buf bytes.Buffer
	for _, tr := range []*Trace{a, b} {
		if err := WriteColumnar(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Collect(NewBlockSource(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !tracesEqual(a, got[0]) || !tracesEqual(b, got[1]) {
		t.Fatal("multi-execution round trip mismatch")
	}
}

// TestColumnarEveryFlippedBitErrors corrupts the encoding one byte at a
// time: every flip must surface as a decode error (CRCs cover both header
// regions and all column payloads), and flips inside block regions must
// name the block.
func TestColumnarEveryFlippedBitErrors(t *testing.T) {
	orig := seedTraceV2()
	data := encodeV2(t, orig, 32)
	for i := range data {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x40
		got, err := Collect(NewBlockSource(bytes.NewReader(corrupt)))
		if err == nil {
			// A flip may not be silently absorbed: it must either fail or
			// (never) decode to the same events. Anything else is silent
			// corruption.
			if len(got) == 1 && tracesEqual(orig, got[0]) {
				t.Fatalf("flip at byte %d produced an identical decode without error", i)
			}
			t.Fatalf("flip at byte %d decoded silently to different events", i)
		}
	}
}

func TestColumnarCorruptBlockNamesIndex(t *testing.T) {
	orig := seedTraceV2()
	data := encodeV2(t, orig, 32) // several blocks
	// Find the second block's magic and flip a byte well inside it.
	first := bytes.Index(data, []byte(blockMagic))
	second := bytes.Index(data[first+1:], []byte(blockMagic))
	if first < 0 || second < 0 {
		t.Fatal("expected at least two blocks")
	}
	pos := first + 1 + second + 20
	corrupt := append([]byte(nil), data...)
	corrupt[pos] ^= 0x01
	_, err := Collect(NewBlockSource(bytes.NewReader(corrupt)))
	if err == nil {
		t.Fatal("corrupt block decoded without error")
	}
	if !strings.Contains(err.Error(), "block 1") {
		t.Fatalf("error does not name block 1: %v", err)
	}
}

func TestColumnarTruncationErrors(t *testing.T) {
	orig := seedTraceV2()
	data := encodeV2(t, orig, 32)
	for _, cut := range []int{1, 4, 6, 10, len(data) / 3, len(data) - 1} {
		if _, err := Collect(NewBlockSource(bytes.NewReader(data[:cut]))); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestBlockEncoderErrors(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewBlockEncoder(&buf, "x", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Event{Time: 100}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Event{Time: 50}); err == nil {
		t.Fatal("out-of-order Write succeeded")
	}
	if err := enc.Close(); err == nil {
		t.Fatal("Close with missing events succeeded")
	}

	enc, _ = NewBlockEncoder(&buf, "x", 0, 1)
	if err := enc.Write(Event{Kind: Kind(9)}); err == nil {
		t.Fatal("unknown kind Write succeeded")
	}

	enc, _ = NewBlockEncoder(&buf, "x", 0, 0)
	if err := enc.Write(Event{}); err == nil {
		t.Fatal("Write past declared count succeeded")
	}
	if _, err := NewBlockEncoder(&buf, "x", -1, 0); err == nil {
		t.Fatal("negative exec accepted")
	}
	if _, err := NewBlockEncoder(&buf, "x", 0, -1); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestBlockEncoderSetBlockEventsAfterWrite(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewBlockEncoder(&buf, "x", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Event{}); err != nil {
		t.Fatal(err)
	}
	if err := enc.SetBlockEvents(8); err == nil {
		t.Fatal("SetBlockEvents after Write succeeded")
	}
}

// TestBlockDecoderFrames drives the block-level interface directly and
// checks the per-block stats.
func TestBlockDecoderFrames(t *testing.T) {
	orig := seedTraceV2()
	data := encodeV2(t, orig, 32)
	d := NewBlockDecoder(bytes.NewReader(data))
	app, exec, ok := d.NextExec()
	if !ok || app != orig.App || exec != orig.Execution {
		t.Fatalf("NextExec = %q, %d, %v", app, exec, ok)
	}
	if got := int(d.Count()); got != len(orig.Events) {
		t.Fatalf("Count = %d, want %d", got, len(orig.Events))
	}
	events := 0
	blocks := 0
	for {
		block, ok := d.NextBlock()
		if !ok {
			break
		}
		st := d.BlockStats()
		if st.Index != blocks {
			t.Fatalf("block index %d, want %d", st.Index, blocks)
		}
		if st.Events != len(block) {
			t.Fatalf("stats events %d != block len %d", st.Events, len(block))
		}
		sum := 0
		for _, c := range st.ColBytes {
			sum += c
		}
		if sum != st.PayloadBytes {
			t.Fatalf("column bytes sum %d != payload %d", sum, st.PayloadBytes)
		}
		for _, got := range block {
			if want := orig.Events[events]; got != want {
				t.Fatalf("event %d: got %+v, want %+v", events, got, want)
			}
			events++
		}
		blocks++
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if events != len(orig.Events) {
		t.Fatalf("decoded %d events, want %d", events, len(orig.Events))
	}
	if want := (len(orig.Events) + 31) / 32; blocks != want {
		t.Fatalf("decoded %d blocks, want %d", blocks, want)
	}
}

// TestBlockSourceReset replays a stream twice and expects identical
// events.
func TestBlockSourceReset(t *testing.T) {
	orig := seedTraceV2()
	src := NewBlockSource(bytes.NewReader(encodeV2(t, orig, 16)))
	first, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	second, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || len(second) != 1 || !tracesEqual(first[0], second[0]) {
		t.Fatal("replay after Reset differs")
	}
}

// TestBlockSourceSteadyStateAllocs: after a warmup pass, replaying the
// stream through Reset must not allocate — the decoded-block buffer, the
// payload buffer and the app-name string are all kept across Reset.
func TestBlockSourceSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; the non-race pass enforces the count")
	}
	orig := seedTraceV2()
	src := NewBlockSource(bytes.NewReader(encodeV2(t, orig, 16)))
	drain := func() {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		for {
			_, _, ok := src.NextExec()
			if !ok {
				break
			}
			for {
				if _, ok := src.Next(); !ok {
					break
				}
			}
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
	}
	drain() // warmup: the block and scratch buffers reach their high-water marks
	avg := testing.AllocsPerRun(50, drain)
	if avg > 0.5 {
		t.Fatalf("steady-state decode allocates %.2f allocs per pass, want 0", avg)
	}
}

// TestSniffedSource: the opener picks the v2 decoder for "PCT2" input
// and the text decoder for anything else.
func TestSniffedSource(t *testing.T) {
	orig := seedTraceV2()
	var v2, txt bytes.Buffer
	if err := WriteColumnar(&v2, orig); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txt, orig); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v2": v2.Bytes(), "text": txt.Bytes()} {
		src, err := newSourceOpts(bytes.NewReader(data), OpenOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Collect(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 1 || !tracesEqual(orig, got[0]) {
			t.Fatalf("%s: sniffed decode mismatch", name)
		}
	}
}
