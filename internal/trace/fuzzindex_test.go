package trace

import (
	"bytes"
	"testing"
)

// encodedIndexedSeed builds a small valid indexed file for fuzz seeding.
func encodedIndexedSeed(f *testing.F) []byte {
	f.Helper()
	tr := seedTraceV2()
	var buf bytes.Buffer
	ib := NewIndexBuilder()
	enc, err := NewBlockEncoder(&buf, tr.App, tr.Execution, len(tr.Events))
	if err != nil {
		f.Fatal(err)
	}
	if err := enc.SetBlockEvents(16); err != nil {
		f.Fatal(err)
	}
	if err := enc.SetIndex(ib); err != nil {
		f.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := enc.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		f.Fatal(err)
	}
	if err := ib.WriteFooter(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzIndexFooter fuzzes the index footer path end to end:
//
//  1. ReadIndex must never panic on arbitrary bytes; a truncated,
//     corrupt, or missing footer must come back as a clean error or the
//     (nil, nil) no-footer fallback;
//  2. whenever pushdown arms — whatever ReadIndex accepted — the
//     index-driven decode must agree with the sequential decode-then-
//     drop reference on the same bytes: same events, or both error. A
//     bad footer may cost the seeks, never correctness;
//  3. the same holds through parallel decode.
func FuzzIndexFooter(f *testing.F) {
	valid := encodedIndexedSeed(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                          // clipped trailer magic
	f.Add(valid[:len(valid)-9])                          // footer body truncated
	f.Add(encodeColumnarSeedNoIndex(f))                  // no footer at all
	f.Add([]byte{})                                      //
	f.Add([]byte(indexMagic))                            // magic only
	f.Add(append([]byte(nil), valid[len(valid)-64:]...)) // footer with no data
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-12] ^= 0x01 // inside the CRC field
	f.Add(corrupt)
	shifted := append(append([]byte(nil), valid...), valid[len(valid)-8:]...)
	f.Add(shifted) // duplicated tail: length points mid-footer

	p := Predicate{From: 1} // permissive but non-zero, so pushdown arms

	f.Fuzz(func(t *testing.T, data []byte) {
		// (1) ReadIndex is total: index, clean error, or fallback.
		idx, err := ReadIndex(bytes.NewReader(data))
		if err != nil && idx != nil {
			t.Fatal("ReadIndex returned both an index and an error")
		}

		// Sequential decode-then-drop reference.
		want, wantErr := drainAll(FilterEvents(NewBlockSource(bytes.NewReader(data)), p))

		// (2) Sequential pushdown.
		bs := NewBlockSource(bytes.NewReader(data))
		armed := bs.SetPredicate(p)
		if armed && idx == nil {
			t.Fatal("pushdown armed on a file ReadIndex rejected")
		}
		got, gotErr := drainAll(FilterEvents(bs, p))
		if wantErr == nil && gotErr == nil && got != want {
			t.Fatalf("pushdown decoded different events\nwant:\n%s\ngot:\n%s", want, got)
		}
		if !armed && ((gotErr == nil) != (wantErr == nil) || got != want) {
			t.Fatal("unarmed pushdown diverged from plain sequential decode")
		}

		// (3) Parallel decode, with and without pushdown.
		for _, pred := range []Predicate{{}, p} {
			ref, refErr := drainAll(FilterEvents(NewBlockSource(bytes.NewReader(data)), pred))
			pgot, perr := drainAll(FilterEvents(parallelSource(t, bytes.NewReader(data), 2, pred), pred))
			if pred.IsZero() {
				// No pushdown: the parallel path must agree exactly,
				// including on validity.
				if (perr == nil) != (refErr == nil) {
					t.Fatalf("parallel decode validity diverged: %v vs %v", perr, refErr)
				}
				if perr == nil && pgot != ref {
					t.Fatalf("parallel decode differs\nwant:\n%s\ngot:\n%s", ref, pgot)
				}
			} else if refErr == nil && perr == nil && pgot != ref {
				t.Fatalf("parallel pushdown decoded different events\nwant:\n%s\ngot:\n%s", ref, pgot)
			}
		}
	})
}

// encodeColumnarSeedNoIndex is the footer-less counterpart of
// encodedIndexedSeed.
func encodeColumnarSeedNoIndex(f *testing.F) []byte {
	f.Helper()
	tr := seedTraceV2()
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, tr); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
