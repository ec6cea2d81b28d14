package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// readColumnar decodes a v2 stream holding exactly one execution.
func readColumnar(data []byte) (*Trace, error) {
	traces, err := Collect(NewBlockSource(bytes.NewReader(data)))
	if err != nil {
		return nil, err
	}
	if len(traces) != 1 {
		return nil, fmt.Errorf("decoded %d executions, want 1", len(traces))
	}
	return traces[0], nil
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := readColumnar(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestBinaryRejectsOutOfOrder(t *testing.T) {
	tr := &Trace{App: "x", Events: []Event{{Time: 10}, {Time: 5}}}
	if err := WriteColumnar(&bytes.Buffer{}, tr); err == nil {
		t.Fatal("out-of-order trace encoded without error")
	}
}

func TestBinaryBadInput(t *testing.T) {
	cases := [][]byte{
		[]byte("XXXX"),
		[]byte("PCTR\x01\x00\x00\x00\x00"), // the retired v1 magic
		[]byte("PCT2"),                     // truncated after magic
		[]byte("PCT2\x09\x00"),             // bad version
		[]byte("PCT2\x01\x00\x05"),         // name length but no name
		[]byte("PCT2\x01\x00\x00y"),        // truncated after the exec index
	}
	for i, in := range cases {
		if _, err := readColumnar(in); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: error %v, want ErrBadFormat", i, err)
		}
	}
}

// TestOpenTraceFileBadFormat: a retired v1 file sniffs as text, and it
// and malformed text lines all fail with a typed ErrBadFormat whose
// message stays short even when the offending line is long.
func TestOpenTraceFileBadFormat(t *testing.T) {
	// One v1 execution: magic, version 1, app "demo", exec 0, one exit
	// event of pid 1 at time 9.
	v1 := []byte("PCTR\x01\x00\x04demo\x00\x01\x09\x01\x02")
	for name, data := range map[string][]byte{
		"v1.pctr":  v1,
		"bad.txt":  []byte("# app demo exec 0\n12 io 1 shred pc=0x1 fd=1 block=1 size=1\n"),
		"time.txt": []byte("soon exit 1\n"),
		"long.txt": bytes.Repeat([]byte("x"), 100_000),
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenTraceFileOpts(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Collect(fs)
		if cerr := fs.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: error %v, want ErrBadFormat", name, err)
		} else if len(err.Error()) > 200 {
			t.Errorf("%s: error message is %d bytes long", name, len(err.Error()))
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# app demo exec 0") {
		t.Fatalf("header missing:\n%s", buf.String())
	}
	got, err := Collect(NewTextDecoder(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(tr, got[0]) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestTextParseErrors(t *testing.T) {
	bad := []string{
		"oops",
		"12 frobnicate 1",
		"x io 1 read pc=0x1 fd=1 block=1 size=1",
		"12 io 1 read pc=0x1",                      // too few fields
		"12 io 1 shred pc=0x1 fd=1 block=1 size=1", // bad access
		"12 io 1 read pc=zz fd=1 block=1 size=1",   // bad pc
		"12 io 1 read fd=1 pc=0x1 block=1 size=1",  // wrong key order
		"12 fork 1",                                // fork without child
		"12 io notanumber read pc=1 fd=1 block=1 size=1",
	}
	for _, line := range bad {
		if _, err := Collect(NewTextDecoder(strings.NewReader(line))); !errors.Is(err, ErrBadFormat) {
			t.Errorf("line %q: error %v, want ErrBadFormat", line, err)
		}
	}
}

func TestTextSkipsBlanksAndComments(t *testing.T) {
	in := "# pcap-trace v1\n\n# app foo exec 3\n\n100 exit 1\n"
	got, err := Collect(NewTextDecoder(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].App != "foo" || got[0].Execution != 3 || len(got[0].Events) != 1 {
		t.Fatalf("parsed %+v", got)
	}
}

// randomTrace builds an arbitrary well-formed trace for property tests.
func randomTrace(r *rand.Rand) *Trace {
	tr := &Trace{App: "prop", Execution: r.Intn(100)}
	var now Time
	for i := 0; i < r.Intn(200); i++ {
		now += Time(r.Intn(1_000_000))
		e := Event{Time: now, Pid: PID(1 + r.Intn(5))}
		switch r.Intn(6) {
		case 0:
			e.Kind = KindFork
			e.Child = e.Pid + 100 + PID(i)
		case 1:
			e.Kind = KindExit
		default:
			e.Kind = KindIO
			e.Access = Access(r.Intn(4))
			e.PC = PC(r.Uint32() | 1)
			e.FD = FD(r.Intn(64))
			e.Block = int64(r.Intn(1 << 30))
			e.Size = int32(r.Intn(1 << 20))
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r)
		var buf bytes.Buffer
		enc, err := NewBlockEncoder(&buf, tr.App, tr.Execution, len(tr.Events))
		if err != nil || enc.SetBlockEvents(1+r.Intn(64)) != nil {
			return false
		}
		for _, e := range tr.Events {
			if enc.Write(e) != nil {
				return false
			}
		}
		if enc.Close() != nil {
			return false
		}
		got, err := readColumnar(buf.Bytes())
		if err != nil {
			return false
		}
		return tracesEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			return false
		}
		got, err := Collect(NewTextDecoder(&buf))
		if err != nil || len(got) != 1 {
			return false
		}
		return tracesEqual(tr, got[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBinaryCompactness(t *testing.T) {
	// Delta and run-length columns should beat the 40-byte in-memory
	// event by a wide margin on a regular I/O stream.
	tr := &Trace{App: "compact"}
	var now Time
	for i := 0; i < 10000; i++ {
		now += Time(20000)
		tr.Events = append(tr.Events, Event{
			Time: now, Pid: 1, Kind: KindIO, Access: AccessRead,
			PC: 0x08049a10, FD: 3, Block: int64(i), Size: 4096,
		})
	}
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, tr); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(buf.Len()) / float64(len(tr.Events))
	if perEvent > 8 {
		t.Errorf("binary encoding too large: %.2f bytes/event", perEvent)
	}
	t.Logf("%.2f bytes/event", perEvent)
}
