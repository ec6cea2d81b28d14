// Differential tests for the parallel v2 decode pipeline at the
// workload level: every synthetic application, encoded with the index
// footer, must decode event-identically through the parallel pipeline
// at any worker count, and predicate-pushdown replay must produce the
// same simulation results as the filtered sequential reference path.
package pcapsim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcapsim/internal/experiments"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// TestParallelDecodeAllApps encodes every execution of each application
// into one indexed v2 stream and checks the parallel pipeline against
// the sequential BlockSource at workers 1, 4 and 8: same executions,
// same events, in the same order.
func TestParallelDecodeAllApps(t *testing.T) {
	for _, app := range workload.Apps() {
		traces := app.Traces(experiments.DefaultSeed)
		var buf bytes.Buffer
		if err := trace.WriteColumnarIndexed(&buf, traces...); err != nil {
			t.Fatalf("%s: encode: %v", app.Name, err)
		}
		data := buf.Bytes()
		want, err := trace.Collect(trace.NewBlockSource(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("%s: sequential decode: %v", app.Name, err)
		}
		for _, workers := range []int{1, 4, 8} {
			src := trace.NewParallelSource(bytes.NewReader(data), workers)
			got, err := trace.Collect(src)
			if cerr := src.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			if err != nil {
				t.Fatalf("%s workers=%d: parallel decode: %v", app.Name, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d executions, want %d", app.Name, workers, len(got), len(want))
			}
			for i := range want {
				w, g := want[i], got[i]
				if g.App != w.App || g.Execution != w.Execution || len(g.Events) != len(w.Events) {
					t.Fatalf("%s workers=%d exec %d: header %s/%d/%d events, want %s/%d/%d",
						app.Name, workers, i, g.App, g.Execution, len(g.Events),
						w.App, w.Execution, len(w.Events))
				}
				for j := range w.Events {
					if g.Events[j] != w.Events[j] {
						t.Fatalf("%s workers=%d exec %d event %d:\n got %+v\nwant %+v",
							app.Name, workers, i, j, g.Events[j], w.Events[j])
					}
				}
			}
		}
	}
}

// writeReplayFiles encodes one app's executions twice into a temp dir:
// with the index footer (pushdown-capable) and without (the fallback
// that must filter every event after decoding).
func writeReplayFiles(t *testing.T) (indexed, plain string) {
	t.Helper()
	app, _ := workload.ByName("nedit")
	traces := app.Traces(experiments.DefaultSeed)
	dir := t.TempDir()
	write := func(name string, encode func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := encode(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	indexed = write("indexed.pct2", func(b *bytes.Buffer) error {
		return trace.WriteColumnarIndexed(b, traces...)
	})
	plain = write("plain.pct2", func(b *bytes.Buffer) error {
		for _, tr := range traces {
			if err := trace.WriteColumnar(b, tr); err != nil {
				return err
			}
		}
		return nil
	})
	return indexed, plain
}

// replayTable strips a replay report's per-path header so results from
// different file names compare directly.
func replayTable(t *testing.T, out string) string {
	t.Helper()
	_, tbl, ok := strings.Cut(out, "\n\n")
	if !ok {
		t.Fatalf("unexpected replay output:\n%s", out)
	}
	return tbl
}

// TestPushdownReplaySimEquivalence runs the simulator over the same
// recorded workload through four decode paths — sequential, parallel,
// pushdown-armed and footerless fallback — and requires identical
// policy results. This is the end-to-end soundness check: skipping
// non-matching blocks via the index must be invisible to the simulation.
// Each replay is the run pcapsim -replay makes: RunSpec.Run with a zero
// environment.
func TestPushdownReplaySimEquivalence(t *testing.T) {
	indexed, plain := writeReplayFiles(t)
	replay := func(path string, spec experiments.RunSpec) string {
		spec.Kind, spec.Trace, spec.Policies = experiments.KindReplay, path, []string{"base", "tp", "pcap"}
		out, err := spec.Run(context.Background(), experiments.RunEnv{})
		if err != nil {
			t.Fatalf("replay %+v: %v", spec, err)
		}
		return replayTable(t, out)
	}

	// Full replay: parallel must match sequential exactly.
	full := replay(indexed, experiments.RunSpec{})
	if got := replay(indexed, experiments.RunSpec{Workers: 4}); got != full {
		t.Fatalf("parallel full replay diverged:\n got:\n%s\nwant:\n%s", got, full)
	}

	// Filtered replay: the footerless file cannot push down, so it is the
	// filter-only reference; the indexed file skips blocks via the index
	// on both the sequential and parallel paths. Guard against a vacuous
	// window first: the predicate must keep some events and drop others.
	app, _ := workload.ByName("nedit")
	traces := app.Traces(experiments.DefaultSeed)
	var maxTime trace.Time
	for _, tr := range traces {
		if last := tr.Events[len(tr.Events)-1].Time; last > maxTime {
			maxTime = last
		}
	}
	window := experiments.RunSpec{FromSec: maxTime.Seconds() / 4, ToSec: maxTime.Seconds() / 2}
	pred := trace.Predicate{From: trace.FromSeconds(window.FromSec), To: trace.FromSeconds(window.ToSec)}
	kept, total := 0, 0
	for _, tr := range traces {
		for _, e := range tr.Events {
			total++
			if pred.MatchEvent(e) {
				kept++
			}
		}
	}
	if kept == 0 || kept == total {
		t.Fatalf("degenerate predicate window: keeps %d of %d events", kept, total)
	}
	ref := replay(plain, window)
	parallel := window
	parallel.Workers = 4
	for name, spec := range map[string]experiments.RunSpec{
		"sequential pushdown": window,
		"parallel pushdown":   parallel,
	} {
		if got := replay(indexed, spec); got != ref {
			t.Fatalf("%s diverged from filtered reference:\n got:\n%s\nwant:\n%s", name, got, ref)
		}
	}
}
