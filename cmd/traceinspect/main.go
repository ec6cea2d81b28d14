// Command traceinspect summarizes a trace file written by tracegen: event
// counts, per-process activity, idle-period structure at a given
// breakeven, and optionally the first events in text form.
//
// The file is processed as a stream in a single pass — events are never
// loaded into memory, so arbitrarily large traces (e.g. tracegen output
// concatenated across executions) inspect in constant memory. Files
// holding several executions get one summary block per execution.
//
// The input format (v2 columnar or text) is detected from the leading
// magic bytes, as in pcapsim and pcapd. For v2 columnar files, -blocks
// prints a per-block report: events per block, encoded bytes per event,
// and the per-column compression ratio against the raw struct-of-arrays
// size;
// -index prints the seekable index footer (per-block offsets and column
// statistics) after verifying its CRC and that every recorded offset
// points at a real execution or block header.
//
// -from/-to/-pid restrict the inspection to matching events. On v2
// files with an index footer the filter is pushed down to the block
// index — non-matching blocks are skipped without being read — and
// -workers N decodes the surviving blocks on a parallel pipeline.
//
// Usage:
//
//	traceinspect traces/mozilla-000.pct2
//	traceinspect -head 25 -breakeven 5.43 traces/nedit-003.txt
//	traceinspect -blocks traces/mozilla-000.pct2
//	traceinspect -index traces/mozilla-000.pct2
//	traceinspect -from 100s -to 300s -pid 1 -workers 4 traces/mozilla-000.pct2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"pcapsim/internal/cliutil"
	"pcapsim/internal/trace"
)

func main() {
	var (
		headFlag      = flag.Int("head", 0, "print the first N events of each execution as text")
		breakevenFlag = flag.Float64("breakeven", 5.43, "breakeven time in seconds for idle-period stats")
		blocksFlag    = flag.Bool("blocks", false, "print per-block stats (v2 columnar files only)")
		indexFlag     = flag.Bool("index", false, "print and verify the index footer (v2 columnar files only)")
		workersFlag   = flag.Int("workers", 0, "decode v2 blocks with N parallel workers (0 = sequential, -1 = one per CPU)")
	)
	var predFlags cliutil.PredicateFlags
	predFlags.Register("")
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(cliutil.MissingTraceError("traceinspect [flags] <trace-file>"))
	}
	path := flag.Arg(0)
	if *indexFlag || *blocksFlag {
		f, err := cliutil.OpenTrace(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close() //pcaplint:ignore errcheck-lite file opened read-only; a close failure cannot lose data
		if *indexFlag {
			err = inspectIndex(f)
		} else {
			err = inspectBlocks(f)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	pred, err := predFlags.Predicate()
	if err != nil {
		fatal(err)
	}
	src, err := trace.OpenTraceFileOpts(path, trace.OpenOptions{Workers: *workersFlag, Pred: pred})
	if err != nil {
		fatal(cliutil.TraceFileError(path, err))
	}

	execs := 0
	for {
		app, exec, ok := src.NextExec()
		if !ok {
			break
		}
		if execs > 0 {
			fmt.Println()
		}
		execs++
		inspect(src, app, exec, *headFlag, *breakevenFlag)
	}
	err = src.Err()
	_ = src.Close() // read-only handle; the decode error is authoritative
	if err != nil {
		fatal(cliutil.TraceFileError(path, err))
	}
	if execs == 0 {
		fatal(fmt.Errorf("%s: no executions found", path))
	}
}

// inspect consumes one execution from src and prints its summary. All
// statistics are computed incrementally; only the -head buffer and
// per-process aggregates are retained.
func inspect(src trace.Source, app string, exec int, head int, breakeven float64) {
	type pstat struct {
		ios   int
		first trace.Time
		last  trace.Time
	}
	var (
		v         = trace.NewValidator(app, exec)
		validErr  error
		events    int
		ios       int
		duration  trace.Time
		procs     = map[trace.PID]*pstat{}
		be        = trace.FromSeconds(breakeven)
		prev      trace.Time
		havePrev  bool
		short     int
		long      int
		longTotal trace.Time
		headBuf   []trace.Event
	)
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if validErr == nil {
			validErr = v.Event(e)
		}
		events++
		duration = e.Time
		if len(headBuf) < head {
			headBuf = append(headBuf, e)
		}
		if !e.IsIO() {
			continue
		}
		ios++
		p := procs[e.Pid]
		if p == nil {
			p = &pstat{first: e.Time}
			procs[e.Pid] = p
		}
		p.ios++
		p.last = e.Time
		if havePrev {
			gap := e.Time - prev
			if gap >= be {
				long++
				longTotal += gap
			} else if gap > 0 {
				short++
			}
		}
		prev = e.Time
		havePrev = true
	}
	if validErr != nil {
		fmt.Fprintln(os.Stderr, "traceinspect: warning:", validErr)
	}

	fmt.Printf("app %s execution %d\n", app, exec)
	fmt.Printf("events %d (I/O %d), duration %.1f s\n", events, ios, duration.Seconds())

	pids := make([]trace.PID, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	fmt.Println("\nprocesses:")
	for _, pid := range pids {
		p := procs[pid]
		fmt.Printf("  pid %-6d %7d I/Os   active %.1f–%.1f s\n",
			pid, p.ios, p.first.Seconds(), p.last.Seconds())
	}

	fmt.Printf("\nidle periods at breakeven %.2f s: %d long (total %.1f s), %d short\n",
		breakeven, long, longTotal.Seconds(), short)

	if head > 0 {
		fmt.Println("\nfirst events:")
		for _, e := range headBuf {
			fmt.Println(" ", e.String())
		}
	}
}

// inspectIndex prints the index footer after verifying it: ReadIndex
// checks the CRC and the structural invariants, and every recorded
// offset is checked to point at a real execution or block header.
func inspectIndex(f *os.File) error {
	idx, err := trace.ReadIndex(f)
	if err != nil {
		return err
	}
	if idx == nil {
		return fmt.Errorf("%s: no index footer (sequential scan only); regenerate with tracegen -format v2", f.Name())
	}
	fmt.Printf("index footer: %d execution(s), %d block(s)\n", len(idx.Execs), idx.Blocks())
	var magic [4]byte
	checkMagic := func(off int64, want string) error {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return err
		}
		if _, err := io.ReadFull(f, magic[:]); err != nil {
			return fmt.Errorf("offset %d: %w", off, err)
		}
		if string(magic[:]) != want {
			return fmt.Errorf("offset %d: found %q, want %q", off, magic[:], want)
		}
		return nil
	}
	for _, em := range idx.Execs {
		if err := checkMagic(em.Offset, "PCT2"); err != nil {
			return fmt.Errorf("index footer: execution %d: %w", em.Exec, err)
		}
		fmt.Printf("\napp %s execution %d: %d events at offset %d, %d block(s)\n",
			em.App, em.Exec, em.Events, em.Offset, len(em.Blocks))
		fmt.Println("  block    offset  events    ios  forks  time range (s)      pids  pc range")
		for i, bm := range em.Blocks {
			if err := checkMagic(bm.Offset, "PCB2"); err != nil {
				return fmt.Errorf("index footer: execution %d block %d: %w", em.Exec, i, err)
			}
			fmt.Printf("  %5d  %8d  %6d %6d %6d  %8.1f–%-8.1f %5d  %08x–%08x\n",
				i, bm.Offset, bm.Events, bm.IOs, bm.Forks,
				bm.MinTime.Seconds(), bm.MaxTime.Seconds(),
				len(bm.Pids), uint32(bm.PCMin), uint32(bm.PCMax))
		}
	}
	fmt.Println("\nverified: crc ok, offsets consistent, all entries point at headers")
	return nil
}

// inspectBlocks walks a v2 columnar file block by block and reports the
// container-level shape of each execution: per-block event counts and
// encoded bytes per event, then per-column encoded sizes against the raw
// struct-of-arrays sizes they decode into.
func inspectBlocks(f *os.File) error {
	d := trace.NewBlockDecoder(f)
	execs := 0
	for {
		app, exec, ok := d.NextExec()
		if !ok {
			break
		}
		if execs > 0 {
			fmt.Println()
		}
		execs++
		fmt.Printf("app %s execution %d (%d events declared)\n", app, exec, d.Count())
		fmt.Println("  block  events    ios  forks    bytes  bytes/event")
		var (
			blocks     int
			events     int
			encoded    int
			colEncoded [trace.NumColumns]int
			colRaw     [trace.NumColumns]int
		)
		for {
			block, ok := d.NextBlock()
			if !ok {
				break
			}
			st := d.BlockStats()
			total := st.HeaderBytes + st.PayloadBytes
			fmt.Printf("  %5d  %6d %6d %6d %8d %12.2f\n",
				st.Index, st.Events, st.IOs, st.Forks, total,
				float64(total)/float64(st.Events))
			blocks++
			events += len(block)
			encoded += total
			for i := 0; i < trace.NumColumns; i++ {
				colEncoded[i] += st.ColBytes[i]
				colRaw[i] += st.RawColBytes(i)
			}
		}
		if err := d.Err(); err != nil {
			return err
		}
		if blocks == 0 {
			continue
		}
		fmt.Printf("  total: %d blocks, %d events, %d bytes (%.2f bytes/event)\n",
			blocks, events, encoded, float64(encoded)/float64(events))
		fmt.Println("\n  column   encoded      raw  ratio")
		for i := 0; i < trace.NumColumns; i++ {
			if colRaw[i] == 0 {
				continue
			}
			fmt.Printf("  %-7s %8d %8d  %5.1f%%\n", trace.ColumnName(i),
				colEncoded[i], colRaw[i], 100*float64(colEncoded[i])/float64(colRaw[i]))
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if execs == 0 {
		return fmt.Errorf("%s: no executions found (not a v2 columnar trace?)", f.Name())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceinspect:", err)
	os.Exit(1)
}
