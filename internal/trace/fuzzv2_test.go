package trace

import (
	"bytes"
	"testing"
)

// encodeColumnarFuzz encodes a trace with a block size derived from the
// input so the fuzzer exercises single-block, block-aligned and
// many-tiny-block layouts.
func encodeColumnarFuzz(t *testing.T, tr *Trace, blockEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := NewBlockEncoder(&buf, tr.App, tr.Execution, len(tr.Events))
	if err != nil {
		t.Fatalf("encoding a valid derived trace failed: %v", err)
	}
	if err := enc.SetBlockEvents(blockEvents); err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := enc.Write(e); err != nil {
			t.Fatalf("encoding a valid derived trace failed: %v", err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("encoding a valid derived trace failed: %v", err)
	}
	return buf.Bytes()
}

// FuzzBlockCodecRoundTrip fuzzes the v2 columnar codec from three sides:
//
//  1. the block decoder must never panic on arbitrary (corrupt) input,
//     and anything it does accept must re-encode and re-decode to the
//     same executions;
//  2. a structurally valid trace derived from the input must survive
//     encode → decode unchanged at an input-derived block size;
//  3. flipping any single bit of a valid encoding must surface as an
//     error (the header and block CRCs leave no unprotected bytes) —
//     never a panic, never silently different events.
func FuzzBlockCodecRoundTrip(f *testing.F) {
	valid := encodedColumnarSeed(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("PCT2"))
	f.Add([]byte("PCT2\x01\x00"))
	f.Add([]byte("PCT2\x01\x00\x04name"))
	f.Add([]byte("XXXX\x01\x00\x04name"))
	f.Add([]byte("PCB2\x10\x00\x00"))
	corrupt := append([]byte(nil), valid...)
	for i := 10; i < len(corrupt); i += 7 {
		corrupt[i] ^= 0x55
	}
	f.Add(corrupt)
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})

	f.Fuzz(func(t *testing.T, data []byte) {
		// (1) Decoder safety on arbitrary bytes.
		traces, err := Collect(NewBlockSource(bytes.NewReader(data)))
		if err == nil {
			var buf bytes.Buffer
			for _, tr := range traces {
				if err := WriteColumnar(&buf, tr); err != nil {
					t.Fatalf("re-encoding a decoded trace failed: %v", err)
				}
			}
			traces2, err := Collect(NewBlockSource(bytes.NewReader(buf.Bytes())))
			if err != nil {
				t.Fatalf("re-decoding failed: %v", err)
			}
			if len(traces) != len(traces2) {
				t.Fatalf("re-decode yields %d executions, want %d", len(traces2), len(traces))
			}
			for i := range traces {
				if !tracesEqual(traces[i], traces2[i]) {
					t.Fatal("decode(encode(decode(data))) != decode(data)")
				}
			}
		}

		// (2) Round trip of a derived valid trace, with an input-derived
		// block size so block boundaries move with the fuzz corpus.
		orig := traceFromBytes(data)
		blockEvents := 1
		if len(data) > 0 {
			blockEvents += int(data[len(data)-1]) % 64
		}
		enc := encodeColumnarFuzz(t, orig, blockEvents)
		got, err := Collect(NewBlockSource(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("decoding a just-encoded trace failed: %v", err)
		}
		if len(got) != 1 || !tracesEqual(orig, got[0]) {
			t.Fatalf("round trip mismatch:\norig: %+v\ngot:  %+v", orig, got)
		}

		// (3) Any single-bit flip must be reported as an error. The flip
		// position and bit are chosen by the input.
		if len(data) >= 2 && len(enc) > 0 {
			pos := (int(data[0])<<8 | int(data[1])) % len(enc)
			bit := byte(1) << (data[0] % 8)
			flipped := append([]byte(nil), enc...)
			flipped[pos] ^= bit
			if _, err := Collect(NewBlockSource(bytes.NewReader(flipped))); err == nil {
				t.Fatalf("bit flip at byte %d (mask %#02x) decoded without error", pos, bit)
			}
		}
	})
}

// encodedColumnarSeed builds a small representative trace and returns its
// v2 encoding split across several blocks.
func encodedColumnarSeed(f *testing.F) []byte {
	f.Helper()
	t := &Trace{App: "seed", Execution: 2, Events: []Event{
		{Time: 0, Pid: 1, Kind: KindIO, Access: AccessOpen, PC: 0x1000, FD: 3, Block: 10, Size: 4096},
		{Time: 1500, Pid: 1, Kind: KindFork, Child: 2},
		{Time: 2000, Pid: 2, Kind: KindIO, Access: AccessRead, PC: 0x2000, FD: -1, Block: -5, Size: 8192},
		{Time: 9000, Pid: 1, Kind: KindIO, Access: AccessWrite, PC: 0x3000, FD: 4, Block: 1 << 40, Size: 512},
		{Time: 12000, Pid: 2, Kind: KindExit},
	}}
	var buf bytes.Buffer
	enc, err := NewBlockEncoder(&buf, t.App, t.Execution, len(t.Events))
	if err != nil {
		f.Fatal(err)
	}
	if err := enc.SetBlockEvents(2); err != nil {
		f.Fatal(err)
	}
	for _, e := range t.Events {
		if err := enc.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
