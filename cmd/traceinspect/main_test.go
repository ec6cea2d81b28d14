package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pcapsim/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/traceinspect.golden from this run's output")

const goldenPath = "testdata/traceinspect.golden"

// goldenTraces builds two small deterministic executions: the first
// spans three default-size v2 blocks, the second fits in one. Forks,
// exits, several processes and every access kind are present, so each
// summary line and every -blocks column has something to report.
func goldenTraces() []*trace.Trace {
	r := rand.New(rand.NewSource(20040214))
	build := func(app string, exec, n int) *trace.Trace {
		t := &trace.Trace{App: app, Execution: exec}
		var now trace.Time
		for i := 0; i < n; i++ {
			if r.Intn(50) == 0 {
				now += trace.Time(r.Intn(30_000_000)) // an idle period
			} else {
				now += trace.Time(r.Intn(20_000))
			}
			e := trace.Event{Time: now, Pid: trace.PID(1 + r.Intn(3))}
			switch r.Intn(40) {
			case 0:
				e.Kind = trace.KindFork
				e.Child = trace.PID(10 + i)
			case 1:
				e.Kind = trace.KindExit
			default:
				e.Kind = trace.KindIO
				e.Access = trace.Access(r.Intn(4))
				e.PC = trace.PC(0x08049000 + 0x10*r.Intn(16))
				e.FD = trace.FD(3 + r.Intn(4))
				e.Block = int64(1000 + i + r.Intn(8))
				e.Size = int32(4096 * (1 + r.Intn(2)))
			}
			t.Events = append(t.Events, e)
		}
		return t
	}
	return []*trace.Trace{build("demo", 0, 9000), build("demo", 1, 700)}
}

// TestGolden pins traceinspect's stdout byte for byte: the default
// summary over the same executions in v2 and in text form, and the
// -blocks report over the v2 file.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "traceinspect")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	traces := goldenTraces()
	var v2, text bytes.Buffer
	if err := trace.WriteColumnarIndexed(&v2, traces...); err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		if err := trace.WriteText(&text, tr); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string][]byte{"demo.pct2": v2.Bytes(), "demo.txt": text.Bytes()}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var got bytes.Buffer
	for _, args := range [][]string{
		{"demo.pct2"},
		{"demo.txt"},
		{"-blocks", "demo.pct2"},
	} {
		fmt.Fprintf(&got, "$ traceinspect %s\n", strings.Join(args, " "))
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &got, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("traceinspect %v: %v\n%s", args, err, stderr.Bytes())
		}
		got.WriteString("\n")
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, got.Len())
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/traceinspect -run TestGolden -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("traceinspect output differs from %s:\n%s", goldenPath, got.Bytes())
	}
}
