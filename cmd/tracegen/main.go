// Command tracegen generates the synthetic application traces used by the
// experiments and writes them to disk, one file per execution.
//
// Executions are generated one at a time (App.Trace) and written as they
// come, so peak memory is one execution regardless of workload size;
// -exec N generates execution N alone.
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
		first, end := 0, a.Executions
		if *execFlag >= 0 {
			first, end = *execFlag, *execFlag+1
		}
		for exec := first; exec < end; exec++ {
			t := a.Trace(*seedFlag, exec)
			path := filepath.Join(*outFlag, fmt.Sprintf("%s-%03d.%s", t.App, exec, ext))
			if err := writeTrace(path, t, *formatFlag); err != nil {
				fatal(err)
			}
			fmt.Printf("%s: %d events, %d I/Os, %.1f s\n",
				path, t.Len(), t.IOCount(), t.Duration().Seconds())
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
