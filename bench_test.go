// Package pcapsim's benchmark harness: one benchmark per table and figure
// of the paper plus ablations over the design choices DESIGN.md calls out
// and micro-benchmarks of the hot paths.
//
// Accuracy and energy benchmarks report their headline numbers through
// b.ReportMetric (hit%, miss%, saved%), so `go test -bench .` regenerates
// the paper's results alongside the timing:
//
//	go test -bench 'BenchmarkFig7' -benchmem
package pcapsim

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pcapsim/internal/classic"
	"pcapsim/internal/core"
	"pcapsim/internal/experiments"
	"pcapsim/internal/fleet"
	"pcapsim/internal/fscache"
	"pcapsim/internal/ltree"
	"pcapsim/internal/predictor"
	"pcapsim/internal/prefetch"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// --- Full suite: serial vs parallel matrix -------------------------------

// benchSuite regenerates the entire evaluation (all tables and figures)
// from a cold suite, running the matrix on parallel workers first. Every
// worker count produces byte-identical output (see internal/experiments
// determinism tests); the ratio of their wall-clocks is the engine's
// speedup.
func benchSuite(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := experiments.NewDefaultSuite()
		if err := s.RunMatrix(parallel); err != nil {
			b.Fatal(err)
		}
		out, err := s.RenderAll(false)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) < 5000 {
			b.Fatalf("implausibly short suite output (%d bytes)", len(out))
		}
	}
}

func BenchmarkSuiteSerial(b *testing.B)   { benchSuite(b, 1) }
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 8) }

// ranSuite returns a fresh default suite that has run exp's matrix, which
// the experiment's data function then reads.
func ranSuite(b *testing.B, exp string) *experiments.Suite {
	b.Helper()
	s := experiments.NewDefaultSuite()
	if err := s.RunMatrix(0, exp); err != nil {
		b.Fatal(err)
	}
	return s
}

// --- Tables ------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ranSuite(b, "table1")
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("short table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewDefaultSuite()
		if s.RenderTable2() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ranSuite(b, "table3")
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(rows[0].Entries[core.VariantBase]), "mozilla-entries")
		}
	}
}

// --- Figures -----------------------------------------------------------

// reportAccuracy surfaces a figure's across-application averages.
func reportAccuracy(b *testing.B, exp string, fig func(*experiments.Suite) (*experiments.AccuracyFigure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f, err := fig(ranSuite(b, exp))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, name := range f.Policies {
				avg := f.Average[name]
				b.ReportMetric(100*avg.Hit, name+"-hit%")
				b.ReportMetric(100*avg.Miss, name+"-miss%")
			}
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	reportAccuracy(b, "fig6", (*experiments.Suite).Fig6)
}

func BenchmarkFig7(b *testing.B) {
	reportAccuracy(b, "fig7", (*experiments.Suite).Fig7)
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ranSuite(b, "fig8")
		f, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, name := range f.Policies {
				b.ReportMetric(100*f.AverageSavings[name], name+"-saved%")
			}
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	reportAccuracy(b, "fig9", (*experiments.Suite).Fig9)
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ranSuite(b, "fig10")
		f, err := s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, name := range f.Policies {
				b.ReportMetric(100*f.Average[name].HitPrimary, name+"-hitprim%")
			}
		}
	}
}

func BenchmarkTPTimeoutSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ranSuite(b, "tpsweep")
		rows, err := s.TPSweep()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(100*r.AvgSavings, fmt.Sprintf("tp%gs-saved%%", r.Timeout.Seconds()))
			}
		}
	}
}

func BenchmarkMultiState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ranSuite(b, "multistate")
		rows, err := s.MultiState()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var plain, multi float64
			for _, r := range rows {
				plain += r.SavedPlain
				multi += r.SavedMulti
			}
			n := float64(len(rows))
			b.ReportMetric(100*plain/n, "pcap-saved%")
			b.ReportMetric(100*multi/n, "pcap+lp-saved%")
		}
	}
}

// --- Ablations (DESIGN.md §6) -------------------------------------------

// runMozilla evaluates one PCAP-family policy on the mozilla workload and
// returns its global counts plus saved energy fraction.
func runMozilla(b *testing.B, runner *sim.Runner, pol sim.Policy) (sim.Counts, float64) {
	b.Helper()
	app, _ := workload.ByName("mozilla")
	traces := app.Traces(experiments.DefaultSeed)
	base, err := runner.RunApp(traces, sim.Policy{
		Name:       "Base",
		NewFactory: func() predictor.Factory { return predictor.AlwaysOn{} },
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := runner.RunApp(traces, pol)
	if err != nil {
		b.Fatal(err)
	}
	return res.Global, 1 - res.Energy.Total()/base.Energy.Total()
}

func pcapPolicy(cfg core.Config) sim.Policy {
	return sim.Policy{
		Name:       "PCAP",
		NewFactory: func() predictor.Factory { return core.MustNew(cfg) },
		Reuse:      true,
	}
}

func BenchmarkAblationWaitWindow(b *testing.B) {
	for _, ms := range []int{250, 500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("window=%dms", ms), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner := sim.MustNewRunner(sim.DefaultConfig())
				cfg := core.DefaultConfig(core.VariantBase)
				cfg.WaitWindow = trace.Time(ms) * trace.Millisecond
				counts, saved := runMozilla(b, runner, pcapPolicy(cfg))
				if i == b.N-1 {
					f := counts.Fractions()
					b.ReportMetric(100*f.Hit, "hit%")
					b.ReportMetric(100*f.Miss, "miss%")
					b.ReportMetric(100*saved, "saved%")
				}
			}
		})
	}
}

func BenchmarkAblationHistoryLen(b *testing.B) {
	for _, h := range []int{2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner := sim.MustNewRunner(sim.DefaultConfig())
				cfg := core.DefaultConfig(core.VariantH)
				cfg.HistoryLen = h
				counts, saved := runMozilla(b, runner, pcapPolicy(cfg))
				if i == b.N-1 {
					f := counts.Fractions()
					b.ReportMetric(100*f.Hit, "hit%")
					b.ReportMetric(100*f.Miss, "miss%")
					b.ReportMetric(100*saved, "saved%")
				}
			}
		})
	}
}

func BenchmarkAblationLTHistory(b *testing.B) {
	for _, h := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("depth=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner := sim.MustNewRunner(sim.DefaultConfig())
				cfg := ltree.DefaultConfig()
				cfg.HistoryLen = h
				pol := sim.Policy{
					Name:       "LT",
					NewFactory: func() predictor.Factory { return ltree.MustNew(cfg) },
					Reuse:      true,
				}
				counts, saved := runMozilla(b, runner, pol)
				if i == b.N-1 {
					f := counts.Fractions()
					b.ReportMetric(100*f.Hit, "hit%")
					b.ReportMetric(100*f.Miss, "miss%")
					b.ReportMetric(100*saved, "saved%")
				}
			}
		})
	}
}

func BenchmarkAblationSignature(b *testing.B) {
	for _, enc := range []core.Encoding{core.EncodingSum, core.EncodingRotXor} {
		b.Run(enc.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner := sim.MustNewRunner(sim.DefaultConfig())
				cfg := core.DefaultConfig(core.VariantBase)
				cfg.Encoding = enc
				counts, _ := runMozilla(b, runner, pcapPolicy(cfg))
				if i == b.N-1 {
					f := counts.Fractions()
					b.ReportMetric(100*f.Hit, "hit%")
					b.ReportMetric(100*f.Miss, "miss%")
				}
			}
		})
	}
}

func BenchmarkAblationTableBound(b *testing.B) {
	for _, bound := range []int{8, 16, 32, 64, 0} {
		name := fmt.Sprintf("bound=%d", bound)
		if bound == 0 {
			name = "bound=unlimited"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner := sim.MustNewRunner(sim.DefaultConfig())
				cfg := core.DefaultConfig(core.VariantBase)
				cfg.TableBound = bound
				counts, _ := runMozilla(b, runner, pcapPolicy(cfg))
				if i == b.N-1 {
					f := counts.Fractions()
					b.ReportMetric(100*f.Hit, "hit%")
					b.ReportMetric(100*f.HitPrimary, "hitprim%")
				}
			}
		})
	}
}

func BenchmarkAblationCacheSize(b *testing.B) {
	for _, kb := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("cache=%dKB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simCfg := sim.DefaultConfig()
				simCfg.Cache.SizeBytes = kb * 1024
				runner := sim.MustNewRunner(simCfg)
				counts, saved := runMozilla(b, runner, pcapPolicy(core.DefaultConfig(core.VariantBase)))
				if i == b.N-1 {
					b.ReportMetric(float64(counts.LongPeriods), "long-periods")
					b.ReportMetric(100*saved, "saved%")
				}
			}
		})
	}
}

// --- Micro-benchmarks of the hot paths -----------------------------------
//
// Methodology (see EXPERIMENTS.md "Hot-path profile"): every micro
// benchmark accumulates its results into the package-level sinks below so
// the compiler cannot eliminate the measured work, uses fixed seeds
// (experiments.DefaultSeed or literal constants) so numbers are comparable
// across PRs, and reports allocations (-benchmem) — the steady-state event
// loop is expected to stay at ~0 allocs/op.

// Benchmark sinks: assigned, never read. Package-level stores defeat
// dead-code elimination of pure measured expressions.
var (
	sinkBool bool
	sinkInt  int
)

// BenchmarkFSCacheReadHit measures the warm read path: every access hits
// and only refreshes the block's LRU position.
func BenchmarkFSCacheReadHit(b *testing.B) {
	c, err := fscache.New(fscache.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	warm := fscache.DefaultConfig().Blocks()
	ev := trace.Event{Kind: trace.KindIO, Access: trace.AccessRead, Pid: 1, PC: 0x1000, FD: 3, Size: 4096}
	in := make([]trace.Event, 1)
	var out []trace.Event
	for i := 0; i < warm; i++ {
		ev.Block = int64(i)
		in[0] = ev
		if out, err = c.FilterInto(out[:0], in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Time = trace.Time(i)
		ev.Block = int64(i % warm)
		in[0] = ev
		out, err = c.FilterInto(out[:0], in)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt += len(out)
	}
}

// BenchmarkFSCacheMissEvict measures the steady-state miss path under a
// full arena: every access misses, evicts the LRU block, and allocates its
// slot from the free list — the worst case of the intrusive rewrite.
func BenchmarkFSCacheMissEvict(b *testing.B) {
	c, err := fscache.New(fscache.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ev := trace.Event{Kind: trace.KindIO, Access: trace.AccessRead, Pid: 1, PC: 0x1000, FD: 3, Size: 4096}
	in := make([]trace.Event, 1)
	var out []trace.Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Time = trace.Time(i)
		ev.Block = int64(i) // strictly increasing: always a miss
		in[0] = ev
		out, err = c.FilterInto(out[:0], in)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt += len(out)
	}
}

// BenchmarkTableTrainEvict measures steady-state training of a bounded
// table: every Train inserts a fresh key and displaces the LRU entry.
func BenchmarkTableTrainEvict(b *testing.B) {
	tab := core.NewTable(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Train(core.Key{Sig: core.Signature(i)})
	}
	sinkInt += tab.Len()
}

// BenchmarkTableTrainRefresh measures re-training resident keys (the
// idempotent MoveToFront path).
func BenchmarkTableTrainRefresh(b *testing.B) {
	tab := core.NewTable(0)
	const n = 512
	for i := 0; i < n; i++ {
		tab.Train(core.Key{Sig: core.Signature(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Train(core.Key{Sig: core.Signature(i % n)})
	}
	sinkInt += tab.Len()
}

func BenchmarkPCAPOnAccess(b *testing.B) {
	p := core.MustNew(core.DefaultConfig(core.VariantBase))
	proc := p.NewProcess(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.OnAccess(predictor.Access{
			Time: trace.Time(i) * 100 * trace.Millisecond,
			PC:   trace.PC(0x1000 + i%7),
			FD:   3,
		})
	}
}

func BenchmarkPCAPOnAccessWithHistory(b *testing.B) {
	p := core.MustNew(core.DefaultConfig(core.VariantFH))
	proc := p.NewProcess(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.OnAccess(predictor.Access{
			Time: trace.Time(i) * 2 * trace.Second,
			PC:   trace.PC(0x1000 + i%7),
			FD:   trace.FD(i % 4),
		})
	}
}

func BenchmarkLTOnAccess(b *testing.B) {
	l := ltree.MustNew(ltree.DefaultConfig())
	proc := l.NewProcess(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gap := 2 * trace.Second
		if i%3 == 0 {
			gap = 30 * trace.Second
		}
		proc.OnAccess(predictor.Access{Time: trace.Time(i) * gap})
	}
}

func BenchmarkTableLookup(b *testing.B) {
	tab := core.NewTable(0)
	for i := 0; i < 1000; i++ {
		tab.Train(core.Key{Sig: core.Signature(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = tab.Lookup(core.Key{Sig: core.Signature(i % 2000)})
	}
}

// BenchmarkCacheFilter measures steady-state whole-trace filtering: the
// cache and the output buffer are reused across iterations (Reset +
// FilterInto), the same ownership discipline the simulator's pooled
// runState applies (DESIGN.md §10) — 0 allocs/op.
func BenchmarkCacheFilter(b *testing.B) {
	app, _ := workload.ByName("nedit")
	tr := app.Trace(experiments.DefaultSeed, 0)
	c, err := fscache.New(fscache.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	out := make([]trace.Event, 0, len(tr.Events))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		out, err = c.FilterInto(out[:0], tr.Events)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt += len(out)
	}
}

// benchmarkDecode measures full-stream decode throughput of one on-disk
// format: every execution of xemacs is encoded once, then each iteration
// decodes the whole byte stream execution by execution, reading each
// through ExecEvents — exactly how sim.RunSource consumes a file-backed
// source.
// bytes/op is the encoded size; events/s is the decoded event rate.
func benchmarkDecode(b *testing.B, encode func(io.Writer, *trace.Trace) error, open func(*bytes.Reader) trace.Source) {
	b.Helper()
	app, _ := workload.ByName("xemacs")
	traces := app.Traces(experiments.DefaultSeed)
	var buf bytes.Buffer
	events := 0
	for _, tr := range traces {
		if err := encode(&buf, tr); err != nil {
			b.Fatal(err)
		}
		events += tr.Len()
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := open(bytes.NewReader(data))
		n := 0
		for {
			if _, _, ok := src.NextExec(); !ok {
				break
			}
			n += len(src.ExecEvents())
		}
		if err := src.Err(); err != nil {
			b.Fatal(err)
		}
		if n != events {
			b.Fatalf("decoded %d events, want %d", n, events)
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkDecodeV2 is the columnar v2 block decoder, decoding each
// execution a whole block at a time into the source's buffer.
func BenchmarkDecodeV2(b *testing.B) {
	benchmarkDecode(b, trace.WriteColumnar, func(r *bytes.Reader) trace.Source { return trace.NewBlockSource(r) })
}

// BenchmarkDecodeV2Parallel is the parallel block pipeline at one worker
// per CPU — the same stream as BenchmarkDecodeV2, so the events/s ratio
// between the two is the pipeline's scaling factor (≈1 minus the
// coordination overhead on a single-CPU host).
func BenchmarkDecodeV2Parallel(b *testing.B) {
	benchmarkDecode(b, trace.WriteColumnar, func(r *bytes.Reader) trace.Source { return trace.NewParallelSource(r, 0) })
}

// countingReaderAt wraps a bytes.Reader and counts bytes read, to report
// how much of the file pushdown actually touches.
type countingReaderAt struct {
	r *bytes.Reader
	n int64
}

func (c *countingReaderAt) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReaderAt) Seek(off int64, whence int) (int64, error) {
	return c.r.Seek(off, whence)
}

// BenchmarkDecodeV2Pushdown decodes an indexed stream under a mid-file
// time window: the index skips non-matching blocks without reading them.
// events/s counts the events actually delivered; read-pct is the
// fraction of the file read from the underlying reader.
func BenchmarkDecodeV2Pushdown(b *testing.B) {
	app, _ := workload.ByName("xemacs")
	traces := app.Traces(experiments.DefaultSeed)
	var buf bytes.Buffer
	// 256-event blocks give the index skip granularity; the default block
	// size would put most of these executions in a single block each.
	ib := trace.NewIndexBuilder()
	for _, tr := range traces {
		enc, err := trace.NewBlockEncoder(&buf, tr.App, tr.Execution, tr.Len())
		if err != nil {
			b.Fatal(err)
		}
		if err := enc.SetBlockEvents(256); err != nil {
			b.Fatal(err)
		}
		if err := enc.SetIndex(ib); err != nil {
			b.Fatal(err)
		}
		for _, e := range tr.Events {
			if err := enc.Write(e); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if err := ib.WriteFooter(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	var maxTime trace.Time
	for _, tr := range traces {
		if last := tr.Events[len(tr.Events)-1].Time; last > maxTime {
			maxTime = last
		}
	}
	pred := trace.Predicate{From: maxTime / 4, To: maxTime / 2}
	var events, read int64
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr := &countingReaderAt{r: bytes.NewReader(data)}
		src := trace.NewBlockSource(cr)
		if !src.SetPredicate(pred) {
			b.Fatal("pushdown did not arm")
		}
		fs := trace.FilterEvents(src, pred)
		for {
			if _, _, ok := fs.NextExec(); !ok {
				break
			}
			events += int64(len(fs.ExecEvents()))
		}
		if err := fs.Err(); err != nil {
			b.Fatal(err)
		}
		read += cr.n
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(100*float64(read)/(float64(b.N)*float64(len(data))), "read-pct")
}

// BenchmarkReplayFourPolicies is a four-policy pcapd replay job without
// the HTTP layer: Suite.ReplayRows over base, tp, pcap and ideal on an
// indexed v2 file of the first executions of mozilla, xemacs and nedit,
// opened afresh per iteration. One pass reads and prepares each
// execution once for all four policies; events/s counts the file's
// events once per iteration.
func BenchmarkReplayFourPolicies(b *testing.B) {
	var traces []*trace.Trace
	events := 0
	for _, name := range []string{"mozilla", "xemacs", "nedit"} {
		app, _ := workload.ByName(name)
		tr := app.Trace(experiments.DefaultSeed, 0)
		traces = append(traces, tr)
		events += tr.Len()
	}
	var buf bytes.Buffer
	if err := trace.WriteColumnarIndexed(&buf, traces...); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "replay.pct2")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	s := experiments.NewDefaultSuite()
	policies := []string{"base", "tp", "pcap", "ideal"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := trace.OpenTraceFileOpts(path, trace.OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rows, err := s.ReplayRows(fs, policies)
		fs.Close()
		if err != nil {
			b.Fatal(err)
		}
		sinkInt += len(rows)
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEvalRetained is a capped four-policy pcapd eval job without
// the HTTP layer, repeated over one retaining suite as pcapd's shared
// suites are: Suite.ReplayRows over base, tp, pcap and ideal on
// mplayer's first two executions. A warm-up pass outside the timer
// generates and retains both executions, so every timed pass skips the
// file-cache filter. events/s counts the source's events once per
// iteration.
func BenchmarkEvalRetained(b *testing.B) {
	s := experiments.NewDefaultSuite()
	s.RetainPrepared()
	app, _ := workload.ByName("mplayer")
	policies := []string{"base", "tp", "pcap", "ideal"}
	open := func() trace.Source { return trace.LimitExecs(s.SourceFor(app), 2) }
	events := 0
	for src := open(); ; {
		if _, _, ok := src.NextExec(); !ok {
			break
		}
		events += len(src.ExecEvents())
	}
	if _, err := s.ReplayRows(open(), policies); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.ReplayRows(open(), policies)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt += len(rows)
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkTraceGeneration(b *testing.B) {
	app, _ := workload.ByName("mozilla")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := app.Trace(experiments.DefaultSeed, i%app.Executions)
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkFullSimulation(b *testing.B) {
	app, _ := workload.ByName("writer")
	traces := app.Traces(experiments.DefaultSeed)
	runner := sim.MustNewRunner(sim.DefaultConfig())
	var ios int
	for _, tr := range traces {
		ios += tr.IOCount()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := pcapPolicy(core.DefaultConfig(core.VariantBase))
		if _, err := runner.RunApp(traces, pol); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ios)*float64(b.N)/b.Elapsed().Seconds(), "ios/s")
}

func BenchmarkPredictorComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ranSuite(b, "predictors")
		rows, err := s.Predictors()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(100*r.Saved, r.Policy+"-saved%")
			}
		}
	}
}

func BenchmarkDeviceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ranSuite(b, "devices")
		rows, err := s.DevicesExperiment()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(100*r.PCAPSaved, fmt.Sprintf("be%.1fs-pcap-saved%%", r.Breakeven))
			}
		}
	}
}

func BenchmarkAblationUnlearn(b *testing.B) {
	for _, unlearn := range []bool{false, true} {
		name := "paper"
		if unlearn {
			name = "unlearn"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner := sim.MustNewRunner(sim.DefaultConfig())
				cfg := core.DefaultConfig(core.VariantBase)
				cfg.UnlearnMisses = unlearn
				counts, saved := runMozilla(b, runner, pcapPolicy(cfg))
				if i == b.N-1 {
					f := counts.Fractions()
					b.ReportMetric(100*f.Hit, "hit%")
					b.ReportMetric(100*f.Miss, "miss%")
					b.ReportMetric(100*saved, "saved%")
				}
			}
		})
	}
}

func BenchmarkClassicOnAccess(b *testing.B) {
	for _, f := range []predictor.Factory{
		classic.MustNewExpAverage(classic.DefaultExpAverageConfig()),
		classic.MustNewLShape(classic.DefaultLShapeConfig()),
		classic.MustNewAdaptiveTimeout(classic.DefaultAdaptiveTimeoutConfig()),
	} {
		b.Run(f.Name(), func(b *testing.B) {
			proc := f.NewProcess(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gap := 2 * trace.Second
				if i%3 == 0 {
					gap = 30 * trace.Second
				}
				proc.OnAccess(predictor.Access{Time: trace.Time(i) * gap})
			}
		})
	}
}

// --- Streaming pipeline ---------------------------------------------------

// BenchmarkRunAppMaterialized / BenchmarkRunAppStreaming compare the two
// ends of the pipeline: generating a whole workload into memory and
// simulating the slice, versus streaming executions one at a time through
// RunSource with a recycled buffer. Each iteration includes generation,
// so -benchmem shows the allocation gap between the paths.
func BenchmarkRunAppMaterialized(b *testing.B) {
	app, _ := workload.ByName("nedit")
	runner := sim.MustNewRunner(sim.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traces := app.Traces(experiments.DefaultSeed)
		pol := pcapPolicy(core.DefaultConfig(core.VariantBase))
		if _, err := runner.RunApp(traces, pol); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAppStreaming(b *testing.B) {
	app, _ := workload.ByName("nedit")
	runner := sim.MustNewRunner(sim.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := pcapPolicy(core.DefaultConfig(core.VariantBase))
		if _, err := runner.RunSource(app.Stream(experiments.DefaultSeed), pol); err != nil {
			b.Fatal(err)
		}
	}
}

// heapPeak is a decision sink that samples the live heap every 128th
// period (a GC before each sample leaves only reachable memory).
type heapPeak struct {
	periods int
	peak    uint64
}

func (h *heapPeak) Record(trace.DecisionRecord) {
	h.periods++
	if h.periods%128 != 1 {
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
}

// benchScalePeak measures the peak live heap while simulating an
// N×-scaled workload, sampled by a heapPeak sink. Materialized runs pin
// the whole scaled workload; streaming runs hold one execution — so the
// streaming peak stays flat as the scale grows.
func benchScalePeak(b *testing.B, scale int, streaming bool) {
	b.Helper()
	app, _ := workload.ByName("nedit")
	for i := 0; i < b.N; i++ {
		runner := sim.MustNewRunner(sim.DefaultConfig())
		var h heapPeak
		opt := sim.TraceOptions{Sink: &h}
		pol := pcapPolicy(core.DefaultConfig(core.VariantBase))
		src := trace.Scale(app.Stream(experiments.DefaultSeed), scale)
		if streaming {
			if _, err := runner.RunSourceTraced(src, pol, opt); err != nil {
				b.Fatal(err)
			}
		} else {
			traces, err := trace.Collect(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := runner.RunSourceTraced(trace.NewSliceSource(traces...), pol, opt); err != nil {
				b.Fatal(err)
			}
			runtime.KeepAlive(traces)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(h.peak)/1024, "peak-heap-KB")
		}
	}
}

func BenchmarkScalePeakMaterialized1(b *testing.B)  { benchScalePeak(b, 1, false) }
func BenchmarkScalePeakMaterialized10(b *testing.B) { benchScalePeak(b, 10, false) }
func BenchmarkScalePeakStreaming1(b *testing.B)     { benchScalePeak(b, 1, true) }
func BenchmarkScalePeakStreaming10(b *testing.B)    { benchScalePeak(b, 10, true) }

// --- Fleet engine ---------------------------------------------------------

// fleetBenchConfig is the shared fleet benchmark setup: n machines, one
// execution each, heterogeneous devices from the full catalog, the default
// six-app mix, and arrivals at a constant rate (one machine every 30
// virtual seconds), so the concurrently active set the report's peak
// concurrency counts — sessions run tens of virtual minutes — is a few
// dozen machines regardless of fleet size.
func fleetBenchConfig(b *testing.B, n int) fleet.Config {
	b.Helper()
	pf, err := experiments.FleetPolicy("pcap", sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return fleet.Config{
		Machines:   n,
		Seed:       experiments.DefaultSeed,
		Executions: 1,
		Stagger:    trace.Time(n) * 30 * trace.Second,
		Policy:     pf,
	}
}

// benchFleet measures fleet throughput (machines/s, events/s).
func benchFleet(b *testing.B, n int) {
	b.Helper()
	cfg := fleetBenchConfig(b, n)
	var events, machines int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fleet.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Machines != n || res.Executions != int64(n) {
			b.Fatalf("fleet ran %d machines / %d executions, want %d / %d",
				res.Machines, res.Executions, n, n)
		}
		events += res.TotalIOs
		machines += int64(res.Machines)
	}
	b.ReportMetric(float64(machines)/b.Elapsed().Seconds(), "machines/s")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkFleet1k(b *testing.B)  { benchFleet(b, 1000) }
func BenchmarkFleet10k(b *testing.B) { benchFleet(b, 10000) }

// BenchmarkFleetReplay1k is BenchmarkFleet1k on recorded traces instead
// of the synthetic generator: every session replays the six apps' first
// recorded executions (round-robin with timestamp warp), the path
// `pcapsim -fleet N -replay file` exercises.
func BenchmarkFleetReplay1k(b *testing.B) {
	var recorded []*trace.Trace
	for _, app := range workload.Apps() {
		recorded = append(recorded, app.Trace(experiments.DefaultSeed, 0))
	}
	cfg := fleetBenchConfig(b, 1000)
	cfg.Replay = recorded
	var machines int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fleet.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Machines != 1000 {
			b.Fatalf("fleet ran %d machines, want 1000", res.Machines)
		}
		machines += int64(res.Machines)
	}
	b.ReportMetric(float64(machines)/b.Elapsed().Seconds(), "machines/s")
}

// benchFleetPeakHeap measures the peak live heap during a fleet run,
// sampled by a GC-then-read goroutine — the number that demonstrates
// O(workers) simulation memory: it stays near-flat from FleetPeakHeap1k
// to FleetPeakHeap10k while total work grows 10x, growing only by the
// per-machine result summaries the fold keeps. It is separate from the throughput benchmarks because the
// forced GCs distort timing.
func benchFleetPeakHeap(b *testing.B, n int) {
	b.Helper()
	cfg := fleetBenchConfig(b, n)
	for i := 0; i < b.N; i++ {
		stop := make(chan struct{})
		sampled := make(chan struct{})
		var peak uint64
		go func() {
			defer close(sampled)
			var ms runtime.MemStats
			for {
				select {
				case <-stop:
					return
				case <-time.After(150 * time.Millisecond):
					runtime.GC()
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peak {
						peak = ms.HeapAlloc
					}
				}
			}
		}()
		f, err := fleet.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		close(stop)
		<-sampled
		if i == b.N-1 {
			b.ReportMetric(float64(peak)/1024, "peak-heap-KB")
			b.ReportMetric(float64(res.PeakConcurrent), "peak-active")
		}
	}
}

func BenchmarkFleetPeakHeap1k(b *testing.B)  { benchFleetPeakHeap(b, 1000) }
func BenchmarkFleetPeakHeap10k(b *testing.B) { benchFleetPeakHeap(b, 10000) }

// BenchmarkPrefetch measures one application's prefetch comparison: one
// pass over its pinned traces feeding the demand-fetch baseline and both
// readahead prefetchers, at the suite's 256-block cache and degree 8.
func BenchmarkPrefetch(b *testing.B) {
	app, _ := workload.ByName("mozilla")
	traces := app.Traces(experiments.DefaultSeed)
	reads := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := prefetch.EvaluateSource(trace.NewSliceSource(traces...), 256, prefetch.None{},
			prefetch.NewGlobalReadahead(8), prefetch.NewPCReadahead(8))
		if err != nil {
			b.Fatal(err)
		}
		reads = rs[0].DemandReads
	}
	b.ReportMetric(float64(reads)*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}
