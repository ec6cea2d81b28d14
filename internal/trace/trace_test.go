package trace

import (
	"strings"
	"testing"
	"time"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		sec  float64
		want Time
	}{
		{0, 0},
		{1, Second},
		{0.001, Millisecond},
		{0.000001, Microsecond},
		{5.43, 5430000},
		{-1.5, -1500000},
	}
	for _, c := range cases {
		if got := FromSeconds(c.sec); got != c.want {
			t.Errorf("FromSeconds(%g) = %d, want %d", c.sec, got, c.want)
		}
	}
	if got := (3 * Second).Seconds(); got != 3.0 {
		t.Errorf("Seconds = %g", got)
	}
	if got := (1500 * Millisecond).Duration(); got != 1500*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if got := (1200 * Millisecond).String(); got != "1.200000s" {
		t.Errorf("String = %q", got)
	}
}

func TestTimeRoundTrip(t *testing.T) {
	for _, sec := range []float64{0, 0.1, 1.0 / 3, 12345.678901} {
		if got := FromSeconds(sec).Seconds(); got < sec-1e-6 || got > sec+1e-6 {
			t.Errorf("round trip of %g gave %g", sec, got)
		}
	}
}

func TestKindAndAccessStrings(t *testing.T) {
	if KindIO.String() != "io" || KindFork.String() != "fork" || KindExit.String() != "exit" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind formatting")
	}
	names := map[Access]string{
		AccessRead: "read", AccessWrite: "write", AccessOpen: "open", AccessClose: "close",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("access %d = %q, want %q", a, a.String(), want)
		}
	}
	if Access(42).String() != "access(42)" {
		t.Error("unknown access formatting")
	}
}

func testTrace() *Trace {
	return &Trace{
		App: "demo",
		Events: []Event{
			{Time: 0, Pid: 1, Kind: KindIO, Access: AccessOpen, PC: 0x100, FD: 3, Block: 10, Size: 4096},
			{Time: 1000, Pid: 1, Kind: KindFork, Child: 2},
			{Time: 2000, Pid: 2, Kind: KindIO, Access: AccessRead, PC: 0x200, FD: 4, Block: 20, Size: 8192},
			{Time: 3000, Pid: 2, Kind: KindExit},
			{Time: 4000, Pid: 1, Kind: KindIO, Access: AccessWrite, PC: 0x300, FD: 3, Block: 30, Size: 4096},
		},
	}
}

func TestTraceBasics(t *testing.T) {
	tr := testTrace()
	if tr.Len() != 5 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.IOCount() != 3 {
		t.Errorf("IOCount = %d", tr.IOCount())
	}
	if got := tr.Pids(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Pids = %v", got)
	}
	if tr.Duration() != 4000 {
		t.Errorf("Duration = %d", tr.Duration())
	}
	if (&Trace{}).Duration() != 0 {
		t.Error("empty trace duration not zero")
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := testTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if err := (&Trace{}).Validate(); err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{
			"out of order",
			[]Event{
				{Time: 100, Pid: 1, Kind: KindIO, PC: 1, Access: AccessRead},
				{Time: 50, Pid: 1, Kind: KindIO, PC: 1, Access: AccessRead},
			},
			"before previous",
		},
		{
			"exit of unknown pid",
			[]Event{{Time: 0, Pid: 5, Kind: KindExit}},
			"exit of non-live",
		},
		{
			"fork reuses live pid",
			[]Event{
				{Time: 0, Pid: 1, Kind: KindIO, PC: 1, Access: AccessRead},
				{Time: 1, Pid: 1, Kind: KindFork, Child: 1},
			},
			"", // either reuse or child==parent error is fine
		},
		{
			"io after exit",
			[]Event{
				{Time: 0, Pid: 1, Kind: KindIO, PC: 1, Access: AccessRead},
				{Time: 1, Pid: 1, Kind: KindExit},
				{Time: 2, Pid: 1, Kind: KindIO, PC: 1, Access: AccessRead},
			},
			"",
		},
		{
			"negative size",
			[]Event{{Time: 0, Pid: 1, Kind: KindIO, PC: 1, Access: AccessRead, Size: -1}},
			"negative size",
		},
		{
			"zero pc",
			[]Event{{Time: 0, Pid: 1, Kind: KindIO, Access: AccessRead}},
			"zero PC",
		},
		{
			"unknown kind",
			[]Event{{Time: 0, Pid: 1, Kind: Kind(9)}},
			"unknown kind",
		},
	}
	for _, c := range cases {
		tr := &Trace{App: "x", Events: c.events}
		err := tr.Validate()
		if err == nil {
			// "io after exit": pid 1 exited, then io — treated as implicit
			// root? No: exit removed it from live, so io must fail.
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSortStable(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Time: 300, Pid: 1, Kind: KindIO, PC: 3, Access: AccessRead},
		{Time: 100, Pid: 1, Kind: KindIO, PC: 1, Access: AccessRead},
		{Time: 100, Pid: 2, Kind: KindIO, PC: 2, Access: AccessRead},
	}}
	tr.SortStable()
	if tr.Events[0].PC != 1 || tr.Events[1].PC != 2 || tr.Events[2].PC != 3 {
		t.Errorf("sorted order wrong: %+v", tr.Events)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 1500000, Pid: 3, Kind: KindIO, Access: AccessRead, PC: 0xabc, FD: 4, Block: 77, Size: 4096}
	want := "1500000 io 3 read pc=0xabc fd=4 block=77 size=4096"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	f := Event{Time: 10, Pid: 1, Kind: KindFork, Child: 9}
	if f.String() != "10 fork 1 child=9" {
		t.Errorf("fork string %q", f.String())
	}
	x := Event{Time: 20, Pid: 1, Kind: KindExit}
	if x.String() != "20 exit 1" {
		t.Errorf("exit string %q", x.String())
	}
}
