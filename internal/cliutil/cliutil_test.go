package cliutil

import (
	"os"
	"strings"
	"testing"
	"time"

	"pcapsim/internal/trace"
)

func TestPredicateFlagsAssemble(t *testing.T) {
	p := PredicateFlags{
		From:   2 * time.Second,
		To:     10 * time.Second,
		Pid:    7,
		PCFrom: "0x1000",
		PCTo:   "8192",
	}
	pred, err := p.Predicate()
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Predicate{
		From:   trace.FromSeconds(2),
		To:     trace.FromSeconds(10),
		Pid:    7,
		PCFrom: 0x1000,
		PCTo:   8192,
	}
	if pred != want {
		t.Fatalf("Predicate() = %+v, want %+v", pred, want)
	}
}

func TestPredicateFlagsBadPC(t *testing.T) {
	for _, p := range []PredicateFlags{{PCFrom: "nope"}, {PCTo: "0xzz"}} {
		_, err := p.Predicate()
		if err == nil {
			t.Fatalf("Predicate() with %+v: no error", p)
		}
		if !strings.Contains(err.Error(), "bad program counter") {
			t.Fatalf("Predicate() error = %q, want the shared bad-program-counter phrasing", err)
		}
	}
}

// TestTraceFileErrorUnwrapsPathError pins the unified "trace file
// <path>: <cause>" shape: a PathError for the same path must not repeat
// the path.
func TestTraceFileErrorUnwrapsPathError(t *testing.T) {
	_, err := OpenTrace("/definitely/not/here.pct2")
	if err == nil {
		t.Fatal("OpenTrace on a missing path: no error")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "trace file /definitely/not/here.pct2: ") {
		t.Fatalf("OpenTrace error = %q, want the trace file prefix", msg)
	}
	if strings.Count(msg, "/definitely/not/here.pct2") != 1 {
		t.Fatalf("OpenTrace error repeats the path: %q", msg)
	}
}

func TestOpenTraceReadsExistingFile(t *testing.T) {
	path := t.TempDir() + "/t.pct2"
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownFormatAndMissingTrace(t *testing.T) {
	if got := UnknownFormatError("csv", TraceFormats).Error(); got != `unknown trace format "csv" (want v2 or text)` {
		t.Fatalf("UnknownFormatError = %q", got)
	}
	if got := MissingTraceError("x [flags] <trace-file>").Error(); !strings.Contains(got, "missing trace file argument") {
		t.Fatalf("MissingTraceError = %q", got)
	}
}
