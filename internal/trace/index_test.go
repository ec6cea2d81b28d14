package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// TestIndexRoundTrip checks the footer against ground truth: every
// recorded offset must point at the right magic in the encoded bytes,
// and the per-block statistics must exactly summarize the block's
// events.
func TestIndexRoundTrip(t *testing.T) {
	a := seedTraceV2()
	b := pushdownTrace()
	b.Execution = 3
	data := encodeIndexed(t, 16, a, b)
	idx, err := ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if idx == nil {
		t.Fatal("no index found")
	}
	if len(idx.Execs) != 2 {
		t.Fatalf("execs = %d, want 2", len(idx.Execs))
	}
	traces := []*Trace{a, b}
	for i, em := range idx.Execs {
		tr := traces[i]
		if em.App != tr.App || em.Exec != tr.Execution || em.Events != uint64(len(tr.Events)) {
			t.Fatalf("exec %d: meta %q/%d/%d does not match trace", i, em.App, em.Exec, em.Events)
		}
		if string(data[em.Offset:em.Offset+4]) != blockFileMagic {
			t.Fatalf("exec %d: offset %d does not point at %q", i, em.Offset, blockFileMagic)
		}
		seen := 0
		for j, bm := range em.Blocks {
			if string(data[bm.Offset:bm.Offset+4]) != blockMagic {
				t.Fatalf("exec %d block %d: offset %d does not point at %q", i, j, bm.Offset, blockMagic)
			}
			ev := tr.Events[seen : seen+bm.Events]
			seen += bm.Events
			if bm.MinTime != ev[0].Time || bm.MaxTime != ev[len(ev)-1].Time {
				t.Fatalf("exec %d block %d: time range [%d,%d] vs events [%d,%d]",
					i, j, bm.MinTime, bm.MaxTime, ev[0].Time, ev[len(ev)-1].Time)
			}
			pids := map[PID]bool{}
			ios, forks := 0, 0
			var pcMin, pcMax PC
			first := true
			for _, e := range ev {
				pids[e.Pid] = true
				switch e.Kind {
				case KindIO:
					ios++
					if first || e.PC < pcMin {
						pcMin = e.PC
					}
					if first || e.PC > pcMax {
						pcMax = e.PC
					}
					first = false
				case KindFork:
					forks++
				}
			}
			if bm.IOs != ios || bm.Forks != forks {
				t.Fatalf("exec %d block %d: ios/forks %d/%d, want %d/%d", i, j, bm.IOs, bm.Forks, ios, forks)
			}
			if len(bm.Pids) != len(pids) {
				t.Fatalf("exec %d block %d: pid set size %d, want %d", i, j, len(bm.Pids), len(pids))
			}
			for k, pid := range bm.Pids {
				if !pids[pid] {
					t.Fatalf("exec %d block %d: pid %d not in block", i, j, pid)
				}
				if k > 0 && bm.Pids[k-1] >= pid {
					t.Fatalf("exec %d block %d: pid set not strictly sorted", i, j)
				}
			}
			if bm.PCMin != pcMin || bm.PCMax != pcMax {
				t.Fatalf("exec %d block %d: pc range [%x,%x], want [%x,%x]", i, j, bm.PCMin, bm.PCMax, pcMin, pcMax)
			}
		}
		if seen != len(tr.Events) {
			t.Fatalf("exec %d: block events sum %d, want %d", i, seen, len(tr.Events))
		}
	}
}

// TestIndexNegativePids checks the signed-pid delta encoding: negative
// pids (kernel threads by convention) must round-trip through the
// footer.
func TestIndexNegativePids(t *testing.T) {
	tr := &Trace{App: "neg", Execution: 0}
	for i, pid := range []PID{-7, -3, 1, 5} {
		tr.Events = append(tr.Events, Event{
			Time: Time(1000 * (i + 1)), Pid: pid, Kind: KindIO,
			Access: AccessRead, PC: 0x100, FD: 3, Block: int64(i), Size: 512,
		})
	}
	data := encodeIndexed(t, 0, tr)
	idx, err := ReadIndex(bytes.NewReader(data))
	if err != nil || idx == nil {
		t.Fatalf("ReadIndex: %v, %v", idx, err)
	}
	got := idx.Execs[0].Blocks[0].Pids
	want := []PID{-7, -3, 1, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pid set = %v, want %v", got, want)
	}
}

// TestReadIndexNoFooter: files without a footer — including files too
// short to hold one — report (nil, nil), the sequential-scan fallback.
func TestReadIndexNoFooter(t *testing.T) {
	cases := map[string][]byte{
		"plain":   encodeV2(t, seedTraceV2(), 16),
		"empty":   {},
		"short":   []byte("PC"),
		"garbage": bytes.Repeat([]byte{0xAB}, 64),
	}
	for name, data := range cases {
		idx, err := ReadIndex(bytes.NewReader(data))
		if idx != nil || err != nil {
			t.Fatalf("%s: ReadIndex = %v, %v; want nil, nil", name, idx, err)
		}
	}
}

// footerStart locates the leading byte of the footer in an indexed file.
func footerStart(t *testing.T, data []byte) int {
	t.Helper()
	if len(data) < 8 || string(data[len(data)-4:]) != indexMagic {
		t.Fatal("no trailing footer magic")
	}
	flen := int(uint32(data[len(data)-8]) | uint32(data[len(data)-7])<<8 |
		uint32(data[len(data)-6])<<16 | uint32(data[len(data)-5])<<24)
	return len(data) - 8 - flen
}

// TestIndexFooterBitFlips flips every bit of the footer region, one at
// a time; no flip may yield a usable index — each must be detected as
// an error or demoted to the no-footer fallback.
func TestIndexFooterBitFlips(t *testing.T) {
	data := encodeIndexed(t, 16, seedTraceV2())
	start := footerStart(t, data)
	if idx, err := ReadIndex(bytes.NewReader(data)); idx == nil || err != nil {
		t.Fatalf("pristine file: ReadIndex = %v, %v", idx, err)
	}
	for off := start; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			idx, err := ReadIndex(bytes.NewReader(mut))
			if idx != nil {
				t.Fatalf("flip at byte %d bit %d yielded an index (err=%v)", off-start, bit, err)
			}
		}
	}
}

// TestIndexFooterTruncated: every truncation of the footer must error
// or fall back, never produce an index.
func TestIndexFooterTruncated(t *testing.T) {
	data := encodeIndexed(t, 16, seedTraceV2())
	start := footerStart(t, data)
	for cut := start; cut < len(data); cut++ {
		idx, _ := ReadIndex(bytes.NewReader(data[:cut]))
		if idx != nil {
			t.Fatalf("truncation at %d yielded an index", cut)
		}
	}
}

// TestIndexedConcatenation: concatenating footer-bearing files must keep
// the documented cat-tracegen-output workflow working — every execution
// decodes, sequentially and in parallel — while the trailing footer
// (whose offsets are segment-relative) must be rejected for seeking, so
// pushdown falls back to the full scan instead of mis-skipping.
func TestIndexedConcatenation(t *testing.T) {
	a := seedTraceV2()
	b := pushdownTrace()
	b.Execution = 7
	one := encodeIndexed(t, 16, a)
	two := encodeIndexed(t, 32, b)
	cat := append(append([]byte(nil), one...), two...)
	selfCat := append(append([]byte(nil), one...), one...)

	for name, data := range map[string][]byte{"a+b": cat, "a+a": selfCat} {
		got, err := Collect(NewBlockSource(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		if len(got) != 2 {
			t.Fatalf("%s: decoded %d executions, want 2", name, len(got))
		}
		pgot, err := Collect(parallelSource(t, bytes.NewReader(data), 4, Predicate{}))
		if err != nil {
			t.Fatalf("%s: parallel: %v", name, err)
		}
		if len(pgot) != 2 || !tracesEqual(got[0], pgot[0]) || !tracesEqual(got[1], pgot[1]) {
			t.Fatalf("%s: parallel decode diverged", name)
		}

		if idx, err := ReadIndex(bytes.NewReader(data)); idx != nil {
			t.Fatalf("%s: trailing footer accepted for a concatenation (err=%v)", name, err)
		}
		p := Predicate{From: 1}
		bs := NewBlockSource(bytes.NewReader(data))
		if bs.SetPredicate(p) {
			t.Fatalf("%s: pushdown armed on a concatenation", name)
		}
		want, err := drainAll(FilterEvents(NewBlockSource(bytes.NewReader(data)), p))
		if err != nil {
			t.Fatal(err)
		}
		fgot, err := drainAll(FilterEvents(bs, p))
		if err != nil || fgot != want {
			t.Fatalf("%s: fallback decode diverged (%v)", name, err)
		}
	}
}

// TestWriteColumnarIndexed: the convenience writer produces a decodable
// stream plus a footer consistent with it.
func TestWriteColumnarIndexed(t *testing.T) {
	a := seedTraceV2()
	b := seedTraceV2()
	b.App, b.Execution = "other", 9
	var buf bytes.Buffer
	if err := WriteColumnarIndexed(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewBlockSource(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !tracesEqual(a, got[0]) || !tracesEqual(b, got[1]) {
		t.Fatal("indexed write round trip mismatch")
	}
	idx, err := ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil || idx == nil || len(idx.Execs) != 2 {
		t.Fatalf("ReadIndex = %v, %v", idx, err)
	}
}
