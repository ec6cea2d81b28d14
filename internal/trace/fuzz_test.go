package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// tracesEqual compares two traces field by field, treating a nil event
// slice and an empty one as equal (decoding never returns nil vs non-nil
// distinctions callers should care about).
func tracesEqual(a, b *Trace) bool {
	if a.App != b.App || a.Execution != b.Execution || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}

// traceFromBytes deterministically derives a structurally valid trace
// from arbitrary fuzz input: 8-byte chunks become events with
// monotonically non-decreasing times, valid kinds, and signed fields that
// exercise the varint paths (negative FDs and blocks included).
func traceFromBytes(data []byte) *Trace {
	t := &Trace{App: "fuzz", Execution: 3}
	if len(data) > 0 {
		// Vary the header fields too.
		t.App = string(rune('a' + data[0]%26))
		t.Execution = int(data[0])
	}
	var now Time
	for len(data) >= 8 {
		c := data[:8]
		data = data[8:]
		now += Time(binary.LittleEndian.Uint16(c[0:2]))
		e := Event{Time: now, Pid: PID(c[2])}
		switch c[3] % 3 {
		case 0:
			e.Kind = KindIO
			e.Access = Access(c[4] % 4)
			e.PC = PC(uint32(c[5])<<8 | uint32(c[6]))
			e.FD = FD(int8(c[6])) // negative FDs hit the varint sign path
			e.Block = int64(int8(c[7])) * 1_000_003
			e.Size = int32(c[4]) << 4
		case 1:
			e.Kind = KindFork
			e.Child = PID(c[4])
		case 2:
			e.Kind = KindExit
		}
		t.Events = append(t.Events, e)
	}
	return t
}

// FuzzCodecRoundTrip fuzzes the text trace codec from both ends:
//
//  1. the decoders must never panic on arbitrary input — retired v1
//     "PCTR" files and other binary bytes sniff as text — every error
//     they report must wrap ErrBadFormat, and anything ReadText accepts
//     must re-encode and re-decode to the same trace;
//  2. a structurally valid trace derived from the input must survive
//     encode → decode unchanged (decode(encode(t)) == t).
func FuzzCodecRoundTrip(f *testing.F) {
	// Seed corpus: a real encoded trace, truncations and corruptions of
	// it, a retired v1 execution, plus raw structured-input seeds.
	// testdata/fuzz/FuzzCodecRoundTrip commits additional seeds.
	valid := encodedSeedTrace(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("PCTR\x01\x00\x04seed\x02\x01\x09\x01\x02"))
	f.Add([]byte("# app seed exec two\n"))
	f.Add([]byte("12 io 1 read pc=0x1 fd=1 block=1\n"))
	corrupt := append([]byte(nil), valid...)
	for i := 10; i < len(corrupt); i += 7 {
		corrupt[i] ^= 0x55
	}
	f.Add(corrupt)
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})

	f.Fuzz(func(t *testing.T, data []byte) {
		// (1) Decoder safety and typed errors on arbitrary bytes.
		tr, err := ReadText(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrBadFormat) {
			t.Fatalf("ReadText error %v does not wrap ErrBadFormat", err)
		}
		if err == nil {
			var buf bytes.Buffer
			if err := WriteText(&buf, tr); err != nil {
				t.Fatalf("re-encoding a decoded trace failed: %v", err)
			}
			tr2, err := ReadText(&buf)
			if err != nil {
				t.Fatalf("re-decoding failed: %v", err)
			}
			if !tracesEqual(tr, tr2) {
				t.Fatal("decode(encode(decode(data))) != decode(data)")
			}
		}
		if _, err := Collect(NewTextDecoder(bytes.NewReader(data))); err != nil && !errors.Is(err, ErrBadFormat) {
			t.Fatalf("TextDecoder error %v does not wrap ErrBadFormat", err)
		}

		// (2) Round trip of a derived valid trace.
		orig := traceFromBytes(data)
		var buf bytes.Buffer
		if err := WriteText(&buf, orig); err != nil {
			t.Fatalf("encoding a valid derived trace failed: %v", err)
		}
		got, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("decoding a just-encoded trace failed: %v", err)
		}
		if !tracesEqual(orig, got) {
			t.Fatalf("round trip mismatch:\norig: %+v\ngot:  %+v", orig, got)
		}
	})
}

// encodedSeedTrace builds a small representative trace and returns its
// text encoding.
func encodedSeedTrace(f *testing.F) []byte {
	f.Helper()
	t := &Trace{App: "seed", Execution: 2, Events: []Event{
		{Time: 0, Pid: 1, Kind: KindIO, Access: AccessOpen, PC: 0x1000, FD: 3, Block: 10, Size: 4096},
		{Time: 1500, Pid: 1, Kind: KindFork, Child: 2},
		{Time: 2000, Pid: 2, Kind: KindIO, Access: AccessRead, PC: 0x2000, FD: -1, Block: -5, Size: 8192},
		{Time: 9000, Pid: 1, Kind: KindIO, Access: AccessWrite, PC: 0x3000, FD: 4, Block: 1 << 40, Size: 512},
		{Time: 12000, Pid: 2, Kind: KindExit},
	}}
	var buf bytes.Buffer
	if err := WriteText(&buf, t); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
