// Command perfbench is the repository's benchmark of record. It runs one
// named workload against the simulator's public packages (and, for the
// pcapd workload, against a pcapd process on loopback), checks every
// output, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics, measured by a separate
// traced run (spans recorded around calls into each layer, plus
// isolation passes for layers hidden inside a call). Run it through
// run.sh, which builds this program and pcapd from source first:
//
//	bash perfbench/run.sh --workload matrix --seed 20040214 --seconds 20 --trace 0
//
// METRICS.md documents every metric, what it should move, and the
// recorded layer table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*report, error){
	"matrix": runMatrix,
	"fleet":  runFleet,
	"pcapd":  runPcapd,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: matrix, fleet or pcapd")
		seed    = fs.Uint64("seed", defaultSeed, "workload seed; every generated input derives from it")
		seconds = fs.Float64("seconds", 20, "length of the measurement window in seconds")
		traced  = fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		root    = fs.String("root", ".", "repository checkout holding internal/experiments/testdata")
		pcapd   = fs.String("pcapd", "", "pcapd binary for the pcapd workload")
		out     = fs.String("out", ".bench_build/out", "directory for scratch files and the span file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want matrix, fleet or pcapd)", *name)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	e := &env{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1,
		root:   *root,
		pcapd:  *pcapd,
		dir:    *out,
		log:    stdout,
	}
	rep, err := drive(e)
	if err != nil {
		return err
	}
	return rep.write(stdout)
}

// env is one benchmark invocation's parameters and shared state.
type env struct {
	seed   uint64
	window time.Duration
	traced bool
	root   string
	pcapd  string
	dir    string
	log    io.Writer

	// corrupt, when set, rewrites the output of operation op before it is
	// checked. Tests use it to prove a wrong answer counts as failed.
	corrupt func(op int, out string) string
}

// output passes an operation's output through the corrupt hook.
func (e *env) output(op int, out string) string {
	if e.corrupt != nil {
		return e.corrupt(op, out)
	}
	return out
}

// logf prints one human-readable line ahead of the result object.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result object printed as the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems lists every failed check, for the human-readable lines.
	problems []string
}

func newReport() *report { return &report{Metrics: make(map[string]metric)} }

// set records a metric. A value that could not be measured — a timing
// of zero successful operations — is recorded as 0; such a run has
// failed operations and reports correct: false.
func (r *report) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// attempt records one operation and whether its output passed its check.
func (r *report) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.fail(err)
	}
}

// fail records a failed check that is not an operation of its own.
func (r *report) fail(err error) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

// write prints every metric by name and unit, then the result object.
func (r *report) write(w io.Writer) error {
	r.Correct = r.Failed == 0 && len(r.problems) == 0 && r.Attempted > 0
	for _, p := range r.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	failedFrac := 0.0
	if r.Attempted > 0 {
		failedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g ratio (%d of %d operations)\n", "failed_frac", failedFrac, r.Failed, r.Attempted)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
