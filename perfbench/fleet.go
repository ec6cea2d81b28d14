package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"pcapsim/internal/experiments"
	"pcapsim/internal/fleet"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
)

// The fleet workload runs fleet.New(...).Run() once per policy over
// base, tp and pcap — an identical machine population under each policy,
// as `pcapsim -fleet` does — then renders the comparison. Every machine
// draws a unique stream generated on demand and never shared, so this is
// where workload generation, machine stepping, the engine's heap and
// ID-order fold, and allocation/GC dominate; sharing work between
// policies has nothing to share here.

const (
	// fleetMachines is the fleet size of one per-policy run. Many
	// machines average the per-machine app and device draws, so the
	// cost of a run moves little from one seed to the next.
	fleetMachines = 240
	// fleetWarmMachines is the fleet size of the set-up's warm-up runs.
	fleetWarmMachines = 32
)

var fleetPolicies = []string{"base", "tp", "pcap"}

// fleetConfig returns the workload's fleet as `pcapsim -fleet` builds it
// with its defaults: the default synthetic mix and device catalog,
// 30-minute sessions (the -duration default), arrivals over one session
// length (Stagger left at its default), the workload seed.
func fleetConfig(seed uint64, machines int) fleet.Config {
	return fleet.Config{
		Machines: machines,
		Seed:     seed,
		Session:  30 * 60 * trace.Second,
		Workers:  runtime.NumCPU(),
	}
}

func runFleet(e *env) (*report, error) {
	rep := newReport()

	// Set-up: resolve every policy and run a small warm-up fleet under
	// each, so code and heap are warm before the first timed operation.
	// The warm-up is the default seed's population on one worker at
	// every workload seed: a small fleet's cost moves by a tenth or more
	// with its app and device draws, and a short parallel run with the
	// scheduling of the moment, while set-up time should move with the
	// code only.
	warm := fleetConfig(defaultSeed, fleetWarmMachines)
	warm.Workers = 1
	var setups []time.Duration
	for range setupReps {
		debug.FreeOSMemory()
		start := time.Now()
		if _, err := experiments.FleetResults(warm, fleetPolicies); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	e.logSetups(setups)

	// Expected output: the same fleets on one worker. The engine's
	// contract is a byte-identical report at any worker count.
	f := &fleetLoop{e: e, rep: rep, machines: fleetMachines}
	ref := fleetConfig(e.seed, f.machines)
	ref.Workers = 1
	refResults, err := experiments.FleetResults(ref, fleetPolicies)
	if err != nil {
		return nil, err
	}
	if err := f.check(refResults, experiments.RenderFleetComparison(fleetPolicies, refResults)); err != nil {
		return nil, fmt.Errorf("reference fleet: %w", err)
	}
	untraced, err := f.loop(nil)
	if err != nil {
		return nil, err
	}
	perOp := float64(f.machines * len(fleetPolicies))
	if !e.traced {
		rep.setSequential(setups, untraced, f.ios)
		e.logf("fleet_machines_per_s %.2f machines/s (%d operations of %d machines x %d policies)",
			perOp*float64(len(untraced.times))/sum(untraced.times).Seconds(), len(untraced.times), f.machines, len(fleetPolicies))
		return rep, nil
	}

	tr := newTracer()
	before := sampleRuntime()
	traced, err := f.loop(tr)
	if err != nil {
		return nil, err
	}
	after := sampleRuntime()
	spans := tr.snapshot()
	if err := writeSpans(filepath.Join(e.dir, fmt.Sprintf("spans-fleet-%d.jsonl", e.seed)), spans, e.log); err != nil {
		return nil, err
	}

	// Isolation inputs: the fleet mix's apps at the machines' own
	// workload seeds.
	s, err := experiments.NewSuite(e.seed, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg := fleetConfig(e.seed, f.machines)
	cfg.Policy = fleet.StaticPolicy(s.PolicyBase())
	probe, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	apps := s.Apps()
	var inputs []genInput
	for id := range 24 {
		for x := range 2 {
			inputs = append(inputs, genInput{app: apps[id%len(apps)], seed: probe.Spec(id).WorkloadSeed, exec: x})
		}
	}
	iso, err := isolate(inputs, s, e.dir)
	if err != nil {
		return nil, err
	}

	layers := byName(spans)
	ops := float64(layers[spanOp].count)
	var runTotal time.Duration
	for _, p := range fleetPolicies {
		runTotal += layers["fleet.run."+p].total
	}
	rep.setIsolation(iso)
	rep.setSim(f.machines*len(fleetPolicies), f.ios, time.Duration(float64(runTotal)/ops), iso)
	rep.set("experiments.render_s", layers["experiments.render"].total.Seconds()/ops, "s")
	rep.set("bench.trace_overhead_frac", median(seconds(traced.times))/median(seconds(untraced.times))-1, "ratio")
	rep.set("bench.unattributed_frac", unattributed(layers), "ratio")

	for _, p := range fleetPolicies {
		e.logf("fleet.run_s.%s %.4f s per run", p, layers["fleet.run."+p].total.Seconds()/ops)
	}
	machinesRun := ops * perOp
	e.logf("fleet.alloc_mb_per_machine %.4f MB", (after.allocBytes-before.allocBytes)/machinesRun/(1<<20))
	e.logf("fleet.gc_cpu_frac %.4f", gcFrac(before, after))
	e.logf("fleet.events %d I/O events per run", f.ios/len(fleetPolicies))
	return rep, nil
}

// fleetLoop runs fleet operations until the window has passed.
type fleetLoop struct {
	e        *env
	rep      *report
	machines int
	ops      int
	first    [sha256.Size]byte
	ios      int // pre-cache I/Os per operation, summed over policies
}

func (f *fleetLoop) loop(tr *tracer) (*opStats, error) {
	return sequential(f.e.window, f.rep, func() (time.Duration, error, error) {
		f.ops++
		d, results, out, err := fleetOp(f.e.seed, f.machines, tr, f.ops)
		if err != nil {
			return 0, nil, err
		}
		return d, f.check(results, f.e.output(f.ops, out)), nil
	})
}

// fleetOp runs one timed operation: one fleet per policy, then the
// comparison render.
func fleetOp(seed uint64, machines int, tr *tracer, op int) (time.Duration, []*fleet.Result, string, error) {
	start := time.Now()
	sp := tr.begin(spanOp, 0, op)
	cfg := fleetConfig(seed, machines)
	results := make([]*fleet.Result, 0, len(fleetPolicies))
	for _, name := range fleetPolicies {
		r := tr.begin("fleet.run."+name, sp, op)
		res, err := experiments.FleetResults(cfg, []string{name})
		tr.end(r)
		if err != nil {
			return 0, nil, "", err
		}
		results = append(results, res[0])
	}
	r := tr.begin("experiments.render", sp, op)
	out := experiments.RenderFleetComparison(fleetPolicies, results)
	tr.end(r)
	tr.end(sp)
	return time.Since(start), results, out, nil
}

var energyLine = regexp.MustCompile(`energy:\s+([0-9.]+) J \(busy ([0-9.]+), idle-short ([0-9.]+), idle-long ([0-9.]+), power-cycle ([0-9.]+)\)`)

// check verifies one operation: every report's per-state energies sum
// to its total (in the rendered report, to its rounding), the
// per-device energies and machine counts add up to the fleet's, and the
// render is identical to the first one checked — the one-worker
// reference.
func (f *fleetLoop) check(results []*fleet.Result, out string) error {
	ios := 0
	for _, res := range results {
		ios += int(res.TotalIOs)
		var devJ float64
		machines := 0
		for _, d := range res.DeviceUse {
			devJ += d.EnergyJ
			machines += d.Machines
		}
		if machines != res.Machines || res.Machines != f.machines {
			return fmt.Errorf("fleet %s: %d machines by device, %d in total, want %d", res.Policy, machines, res.Machines, f.machines)
		}
		if total := res.Energy.Total(); math.Abs(devJ-total) > 1e-9*total {
			return fmt.Errorf("fleet %s: per-device energy %.6f J differs from the total %.6f J", res.Policy, devJ, total)
		}
	}
	lines := energyLine.FindAllStringSubmatch(out, -1)
	if len(lines) != len(results) {
		return fmt.Errorf("fleet: render has %d energy lines, want %d", len(lines), len(results))
	}
	for _, l := range lines {
		var v [5]float64
		for i := range v {
			x, err := strconv.ParseFloat(l[i+1], 64)
			if err != nil {
				return fmt.Errorf("fleet: energy line %q: %w", l[0], err)
			}
			v[i] = x
		}
		// Each figure is rounded to 0.1 J, so the parts may miss the
		// total by up to 0.05 J each.
		if math.Abs(v[1]+v[2]+v[3]+v[4]-v[0]) > 0.25 {
			return fmt.Errorf("fleet: per-state energies do not sum to the total in %q", l[0])
		}
	}
	sum := sha256.Sum256([]byte(out))
	if f.ios == 0 {
		f.first, f.ios = sum, ios
	} else if sum != f.first || ios != f.ios {
		return fmt.Errorf("fleet: report digest %x differs from the one-worker reference %x", sum[:8], f.first[:8])
	}
	return nil
}
