// Command pcapsim regenerates the paper's tables and figures from the
// synthetic workloads.
//
// Usage:
//
//	pcapsim -exp all
//	pcapsim -exp fig7 -seed 42
//	pcapsim -exp table1,fig6,fig8 -parallel 8
//	pcapsim -replay traces/mozilla-000.pct2 -policies base,tp,pcap,ideal
//	pcapsim -experiment examples/pcap-vs-timeout.json
//	pcapsim -fleet 1000 -duration 30m -mix mozilla:2,xemacs:1 -policies base,tp,pcap
//
// Experiments: table1, table2, table3, fig6, fig7, fig8, fig9, fig10,
// tpsweep, multistate, predictors, devices, prefetch, and "all".
//
// -fleet N simulates a fleet of N machines (internal/fleet), each
// session run to completion through the simulator, instead of the
// paper's per-app experiments: machines draw heterogeneous devices from
// the disk catalog and per-execution applications from the -mix weights ("app:weight,app:weight"; default
// all six apps equally), run sessions of -duration virtual time with
// arrivals staggered across one session, and the run prints each
// policy's aggregate fleet report plus a cross-policy comparison. The
// output is byte-identical for a seed at any -parallel value.
//
// -experiment runs an executable hypothesis (internal/hypothesis): the
// JSON spec names an app, a candidate and a baseline policy, success
// criteria, and optionally a counterfactual decision flip; the report
// carries the verdict and a per-decision energy attribution. Exit status:
// 0 when the hypothesis is supported, 3 when it is refuted, 1 on errors —
// so a spec can gate a CI pipeline.
//
// The evaluation matrix fans out across -parallel workers (default: one
// per CPU). Output is deterministic: the same seed produces byte-identical
// tables and figures at any worker count. Wall-clock is reported on
// stderr so stdout stays byte-comparable.
//
// -replay runs a recorded trace file (v2 columnar or text; the format
// is sniffed from the leading bytes) through the simulator
// under the -policies list instead of the generated workloads.
//
// For profiling the simulation hot path, -cpuprofile and -memprofile
// write pprof files covering the whole run:
//
//	pcapsim -exp all -cpuprofile cpu.out
//	go tool pprof -top cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pcapsim/internal/cliutil"
	"pcapsim/internal/experiments"
	"pcapsim/internal/fleet"
	"pcapsim/internal/hypothesis"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
)

func main() {
	var (
		expFlag      = flag.String("exp", "all", "comma-separated experiments (table1,table2,table3,fig6,fig7,fig8,fig9,fig10,tpsweep,multistate,predictors,devices,prefetch,all)")
		seedFlag     = flag.Uint64("seed", experiments.DefaultSeed, "workload seed")
		barsFlag     = flag.Bool("bars", false, "render accuracy figures as stacked bars instead of tables")
		parallelFlag = flag.Int("parallel", runtime.NumCPU(), "worker count for the experiment matrix (1 = serial)")
		scaleFlag    = flag.Int("scale", 1, "repeat every workload N times with warped timestamps (1 = the paper's workloads)")
		replayFlag   = flag.String("replay", "", "replay a recorded trace file instead of running experiments (with -fleet N: replay it as the fleet's workload)")
		hypoFlag     = flag.String("experiment", "", "run an executable hypothesis from a JSON spec file")
		fleetFlag    = flag.Int("fleet", 0, "simulate a fleet of N machines instead of running experiments")
		mixFlag      = flag.String("mix", "", "fleet application mix as app:weight,app:weight (default: all apps, equal weights)")
		durationFlag = flag.Duration("duration", 30*time.Minute, "fleet per-machine virtual session length")
		policiesFlag = flag.String("policies", "base,tp,pcap,ideal", "comma-separated policies for -replay and -fleet ("+strings.Join(experiments.ReplayPolicyNames(), ",")+")")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the run to the given file")
		memProfile   = flag.String("memprofile", "", "write a heap profile (after the run) to the given file")
	)
	var predFlags cliutil.PredicateFlags
	predFlags.Register("with -replay: ")
	flag.Parse()
	if *parallelFlag < 1 {
		*parallelFlag = 1
	}
	if *scaleFlag < 1 {
		fatal(fmt.Errorf("-scale must be at least 1, got %d", *scaleFlag))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "pcapsim: closing cpu profile:", err)
			}
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pcapsim: -memprofile:", err)
				return
			}
			runtime.GC() // profile only live, post-run memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pcapsim: -memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "pcapsim: closing mem profile:", err)
			}
		}()
	}

	if *hypoFlag != "" {
		data, err := os.ReadFile(*hypoFlag)
		if err != nil {
			fatal(err)
		}
		spec, err := hypothesis.Parse(data)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		res, err := hypothesis.Run(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Print(hypothesis.Render(res))
		fmt.Fprintf(os.Stderr, "pcapsim: hypothesis %q in %s\n",
			spec.Name, time.Since(start).Round(time.Millisecond))
		if !res.Supported {
			os.Exit(3)
		}
		return
	}

	pred, err := predFlags.Predicate()
	if err != nil {
		fatal(err)
	}

	if *fleetFlag != 0 {
		if *fleetFlag < 0 {
			fatal(fmt.Errorf("fleet: machine count must be positive, got %d", *fleetFlag))
		}
		mix, err := fleet.ParseMix(*mixFlag)
		if err != nil {
			fatal(fmt.Errorf("-mix: %w", err))
		}
		cfg := fleet.Config{
			Machines: *fleetFlag,
			Seed:     *seedFlag,
			Session:  trace.FromSeconds(durationFlag.Seconds()),
			Mix:      mix,
			Workers:  *parallelFlag,
		}
		if *replayFlag != "" {
			// Fleet trace replay: the file's executions (decoded in
			// parallel, predicate pushed down to the block index) become
			// the fleet's workload instead of the synthetic generators.
			fs, err := trace.OpenTraceFileOpts(*replayFlag, trace.OpenOptions{Workers: *parallelFlag, Pred: pred})
			if err != nil {
				fatal(cliutil.TraceFileError(*replayFlag, err))
			}
			traces, err := trace.Collect(fs)
			_ = fs.Close() // read-only handle; the decode error below is authoritative
			if err != nil {
				fatal(cliutil.TraceFileError(*replayFlag, err))
			}
			cfg.Replay = traces
		}
		start := time.Now()
		out, err := experiments.FleetComparison(cfg, splitList(*policiesFlag))
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "pcapsim: fleet of %d machines in %s (parallel=%d)\n",
			*fleetFlag, time.Since(start).Round(time.Millisecond), *parallelFlag)
		return
	}

	suite, err := experiments.NewSuite(*seedFlag, sim.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	suite.SetScale(*scaleFlag)

	if *replayFlag != "" {
		start := time.Now()
		out, err := suite.ReplayFileOpts(*replayFlag, splitList(*policiesFlag),
			experiments.ReplayOptions{Workers: *parallelFlag, Pred: pred})
		if err != nil {
			fatal(cliutil.TraceFileError(*replayFlag, err))
		}
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "pcapsim: replay of %s in %s\n",
			*replayFlag, time.Since(start).Round(time.Millisecond))
		return
	}

	order := experiments.ExperimentNames()
	known := map[string]bool{}
	for _, o := range order {
		known[o] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		e = strings.TrimSpace(strings.ToLower(e))
		if e == "" {
			continue
		}
		if e == "all" {
			for _, o := range order {
				want[o] = true
			}
			continue
		}
		if !known[e] {
			fatal(fmt.Errorf("unknown experiment %q", e))
		}
		want[e] = true
	}
	var wanted []string
	for _, e := range order {
		if want[e] {
			wanted = append(wanted, e)
		}
	}
	if len(wanted) == 0 {
		fatal(fmt.Errorf("-exp %q selects no experiment", *expFlag))
	}

	start := time.Now()
	// Warm every memoized cell on the worker pool; the serial rendering
	// below then reads caches only, keeping output byte-identical at any
	// -parallel.
	if err := suite.RunMatrix(*parallelFlag, wanted...); err != nil {
		fatal(err)
	}
	out, err := suite.RenderAll(*barsFlag, wanted...)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
	fmt.Fprintf(os.Stderr, "pcapsim: %d experiment(s) in %s (parallel=%d)\n",
		len(wanted), time.Since(start).Round(time.Millisecond), *parallelFlag)
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcapsim:", err)
	os.Exit(1)
}
