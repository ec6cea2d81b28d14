// Command tracegen generates the synthetic application traces used by the
// experiments and writes them to disk, one file per execution.
//
// Generation streams: executions are produced one at a time into a
// recycled buffer and written through the streaming encoder, so peak
// memory is one execution regardless of workload size.
//
// v2 files carry a seekable index footer (per-block offsets and column
// statistics, enabling parallel decode with predicate pushdown).
//
// Usage:
//
//	tracegen -app mozilla -out traces/                # all executions, v2 columnar
//	tracegen -app nedit -exec 3 -format text -out .   # one execution, text
//	tracegen -app all -out traces/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pcapsim/internal/cliutil"
	"pcapsim/internal/experiments"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

func main() {
	var (
		appFlag    = flag.String("app", "all", "application name or 'all'")
		execFlag   = flag.Int("exec", -1, "single execution index (default: all)")
		seedFlag   = flag.Uint64("seed", experiments.DefaultSeed, "workload seed")
		formatFlag = flag.String("format", "v2", "output trace format: "+cliutil.TraceFormats)
		outFlag    = flag.String("out", ".", "output directory")
	)
	flag.Parse()

	var apps []*workload.App
	if *appFlag == "all" {
		apps = workload.Apps()
	} else {
		a, ok := workload.ByName(*appFlag)
		if !ok {
			fatal(fmt.Errorf("unknown application %q (known: %v)", *appFlag, workload.Names()))
		}
		apps = []*workload.App{a}
	}
	ext := map[string]string{"v2": "pct2", "text": "txt"}[*formatFlag]
	if ext == "" {
		fatal(cliutil.UnknownFormatError(*formatFlag, cliutil.TraceFormats))
	}
	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		fatal(err)
	}

	for _, a := range apps {
		if *execFlag >= a.Executions {
			fatal(fmt.Errorf("%s has %d executions; -exec %d out of range", a.Name, a.Executions, *execFlag))
		}
		src := a.Stream(*seedFlag)
		for {
			app, exec, ok := src.NextExec()
			if !ok {
				break
			}
			// The stream's recycled buffer holds the execution; borrow it
			// instead of copying.
			view := &trace.Trace{App: app, Execution: exec, Events: src.ExecEvents()}
			if *execFlag >= 0 && exec != *execFlag {
				continue
			}
			path := filepath.Join(*outFlag, fmt.Sprintf("%s-%03d.%s", app, exec, ext))
			if err := writeTrace(path, view, *formatFlag); err != nil {
				fatal(err)
			}
			fmt.Printf("%s: %d events, %d I/Os, %.1f s\n",
				path, view.Len(), view.IOCount(), view.Duration().Seconds())
		}
	}
}

func writeTrace(path string, t *trace.Trace, format string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		// A failed close after a clean encode still means a truncated
		// trace file; surface it.
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if format == "text" {
		return trace.WriteText(f, t)
	}
	return trace.WriteColumnarIndexed(f, t)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
