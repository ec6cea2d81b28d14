// Package fleet simulates a fleet of user machines with staggered
// session arrivals.
//
// The single-machine simulator (internal/sim) answers "what does a policy
// save on one machine's disk over one session". The fleet engine answers
// the production-scale question: what do PCAP/TP/LT save across
// thousands of machines with heterogeneous disks, per-machine
// application mixes, and staggered session arrivals. The engine itself
// puts no cap on Config.Machines; runs described by an
// experiments.RunSpec (pcapsim -fleet, pcapd jobs) are bounded by
// experiments.MaxFleetMachines. Every machine's session is generated
// once and run to completion on the worker that claimed it, as one
// sim.RunCells pass with a cell per policy; aggregate accounting is kept
// per machine and committed in machine-ID order so the report is
// byte-identical at any worker count.
//
// Determinism contract: everything a machine does is a pure function of
// (Config.Seed, machine ID) — its arrival time, its device, its workload
// seed and its per-execution application picks all derive from one
// splittable rng chain (see Spec). Worker count, which worker claims a
// machine and run order only change when independent machines are
// simulated, never any machine's own event sequence, and the final fold
// walks machine IDs in increasing order, fixing every floating-point
// accumulation order.
//
// Memory contract: live simulation state is O(workers × policies): each
// worker holds one machine's runStates (one per policy, from the
// per-device runner's sync.Pool) and one pooled event buffer at a time,
// whatever the fleet size or session overlap. Beyond that the fleet
// keeps one result summary per machine and policy for the fold.
package fleet

import (
	"fmt"
	"runtime"
	"slices"

	"pcapsim/internal/disk"
	"pcapsim/internal/rng"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// AppShare weights one application in the fleet's workload mix.
type AppShare struct {
	// Name is a registered workload application ("mozilla", "xemacs", …).
	Name string
	// Weight is the share's relative probability mass (must be positive).
	Weight float64
}

// DeviceShare weights one device profile in the fleet's hardware mix.
type DeviceShare struct {
	Device disk.Params
	Weight float64
}

// Config parameterizes a fleet simulation.
type Config struct {
	// Machines is the number of simulated user machines.
	Machines int
	// Seed is the fleet's master seed; every machine derives its own
	// randomness from (Seed, machine ID).
	Seed uint64
	// Session is each machine's target virtual session length: a machine
	// keeps starting executions until its session clock reaches Session,
	// always completing at least one. Zero defaults to 30 virtual
	// minutes (unless Executions is set).
	Session trace.Time
	// Executions, if positive, gives every machine exactly that many
	// executions instead of a time-bounded session.
	Executions int
	// Stagger is the arrival window: machine session arrivals are uniform
	// in [0, Stagger). It defaults to Session — sessions ramp up over one
	// session length. Arrivals shape only the fleet horizon
	// (Result.SimTime) and how many sessions overlap
	// (Result.PeakConcurrent), never any machine's results or the
	// engine's memory.
	Stagger trace.Time
	// Mix is the application mix; each machine draws an app per execution
	// from these weights. Empty defaults to the paper's six applications,
	// equally weighted.
	Mix []AppShare
	// Replay, if non-empty, replaces the synthetic workload generator
	// with recorded traces: machines draw applications from the distinct
	// app names in Replay (equally weighted) and execution i of an app
	// replays recorded execution i mod n with pass i/n's deterministic
	// timestamp warp (trace.WarpTime) — the same drift model
	// trace.Scale uses, so a replayed fleet session keeps each trace's
	// I/O structure without microsecond-identical repeats. Mutually
	// exclusive with Mix.
	Replay []*trace.Trace
	// Devices is the hardware mix; each machine draws its disk once from
	// these weights. Empty defaults to the full disk.Catalog, equally
	// weighted.
	Devices []DeviceShare
	// Base is the simulator configuration shared by every machine; the
	// Disk field is replaced per machine by its drawn device. The zero
	// value defaults to sim.DefaultConfig.
	Base sim.Config
	// Policy builds the shutdown policies for a device, each a cell of
	// every machine's pass. It is invoked once per distinct device;
	// predictors typically derive their thresholds (breakeven, wait
	// window) from the device, which is why the policies are a function
	// of it. Every device must return the same names in the same order,
	// the order of Run's results.
	Policy func(dev disk.Params) ([]sim.Policy, error)
	// Workers is the worker count; workers claim machines one at a time
	// from one shared job list. Zero defaults to GOMAXPROCS. The rendered
	// report is byte-identical at any worker count.
	Workers int
	// Interrupt, if non-nil, is polled once before every execution a
	// machine starts, for all policies; a non-nil return ends that
	// machine's session and aborts the run with an error wrapping it.
	// Cancellation latency is therefore at most one execution's
	// simulation, under every policy, per worker. Wire
	// ctx.Err here to make a fleet run cancelable (the daemon's per-job
	// timeouts and client disconnects). Interrupt must be safe for
	// concurrent calls.
	Interrupt func() error
}

// Spec is one machine's derived identity: everything that makes machine
// id's session different from machine id+1's.
type Spec struct {
	// Arrival is the global virtual time the machine's session starts.
	Arrival trace.Time
	// Device indexes the fleet's device list.
	Device int
	// WorkloadSeed seeds the machine's workload generators.
	WorkloadSeed uint64
}

// fleetLabel separates the fleet's rng chain from the workload chains.
const fleetLabel = 0xF1EE7

// sessionApp is one drawable application in a fleet session: a name and
// an execution generator. Synthetic mixes bind it to a workload.App's
// generator; trace replay binds it to recorded executions. Both are pure
// functions of (seed, exec), which is what keeps the fleet's determinism
// contract independent of where events come from.
type sessionApp struct {
	name         string
	appendEvents func(buf []trace.Event, seed uint64, exec int) []trace.Event
}

// replayApps builds the drawable app set from recorded traces: traces
// group by app name (first-appearance order), and execution i of a
// group with n recorded executions replays recording i mod n under pass
// i/n's timestamp warp.
func replayApps(traces []*trace.Trace) ([]sessionApp, []float64, error) {
	index := make(map[string]int)
	var groups [][]*trace.Trace
	var names []string
	for i, tr := range traces {
		if tr == nil || len(tr.Events) == 0 {
			return nil, nil, fmt.Errorf("fleet: replay trace %d is empty", i)
		}
		gi, ok := index[tr.App]
		if !ok {
			gi = len(groups)
			index[tr.App] = gi
			groups = append(groups, nil)
			names = append(names, tr.App)
		}
		groups[gi] = append(groups[gi], tr)
	}
	apps := make([]sessionApp, len(groups))
	weights := make([]float64, len(groups))
	for gi := range groups {
		group := groups[gi]
		apps[gi] = sessionApp{
			name: names[gi],
			appendEvents: func(buf []trace.Event, _ uint64, exec int) []trace.Event {
				rec := group[exec%len(group)]
				pass := exec / len(group)
				for _, e := range rec.Events {
					e.Time = trace.WarpTime(e.Time, pass)
					buf = append(buf, e)
				}
				return buf
			},
		}
		weights[gi] = 1
	}
	return apps, weights, nil
}

// Fleet is a validated, ready-to-run fleet simulation.
type Fleet struct {
	cfg        Config
	apps       []sessionApp
	appWeights []float64
	devices    []disk.Params
	devWeights []float64
	cells      [][]sim.Cell // per device: one cell per policy
	names      []string     // the policy names, shared by every device
}

// New validates cfg, applies defaults, and builds each device's runner
// and its cell per policy.
func New(cfg Config) (*Fleet, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 machine, got %d", cfg.Machines)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("fleet: Config.Policy is required")
	}
	if cfg.Executions < 0 {
		return nil, fmt.Errorf("fleet: negative Executions %d", cfg.Executions)
	}
	if cfg.Session < 0 || cfg.Stagger < 0 {
		return nil, fmt.Errorf("fleet: negative Session or Stagger")
	}
	if cfg.Session == 0 && cfg.Executions == 0 {
		cfg.Session = 1800 * trace.Second
	}
	if cfg.Stagger == 0 {
		cfg.Stagger = cfg.Session
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if len(cfg.Replay) > 0 && len(cfg.Mix) > 0 {
		return nil, fmt.Errorf("fleet: Replay and Mix are mutually exclusive")
	}
	if len(cfg.Replay) == 0 && len(cfg.Mix) == 0 {
		for _, a := range workload.Apps() {
			cfg.Mix = append(cfg.Mix, AppShare{Name: a.Name, Weight: 1})
		}
	}
	if len(cfg.Devices) == 0 {
		for _, d := range disk.Catalog() {
			cfg.Devices = append(cfg.Devices, DeviceShare{Device: d, Weight: 1})
		}
	}
	if cfg.Base == (sim.Config{}) {
		cfg.Base = sim.DefaultConfig()
	}

	f := &Fleet{cfg: cfg}
	if len(cfg.Replay) > 0 {
		apps, weights, err := replayApps(cfg.Replay)
		if err != nil {
			return nil, err
		}
		f.apps, f.appWeights = apps, weights
	}
	for _, share := range cfg.Mix {
		app, ok := workload.ByName(share.Name)
		if !ok {
			return nil, fmt.Errorf("fleet: unknown application %q in mix", share.Name)
		}
		if share.Weight <= 0 {
			return nil, fmt.Errorf("fleet: non-positive weight %g for application %q", share.Weight, share.Name)
		}
		f.apps = append(f.apps, sessionApp{name: app.Name, appendEvents: app.AppendEvents})
		f.appWeights = append(f.appWeights, share.Weight)
	}
	for _, share := range cfg.Devices {
		if share.Weight <= 0 {
			return nil, fmt.Errorf("fleet: non-positive weight %g for device %q", share.Weight, share.Device.Name)
		}
		rc := cfg.Base
		rc.Disk = share.Device
		runner, err := sim.NewRunner(rc)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %q: %w", share.Device.Name, err)
		}
		pols, err := cfg.Policy(share.Device)
		if err != nil {
			return nil, fmt.Errorf("fleet: policies for device %q: %w", share.Device.Name, err)
		}
		cells := make([]sim.Cell, len(pols))
		names := make([]string, len(pols))
		for p, pol := range pols {
			if err := pol.Validate(); err != nil {
				return nil, fmt.Errorf("fleet: policy for device %q: %w", share.Device.Name, err)
			}
			cells[p] = sim.Cell{Runner: runner, Policy: pol}
			names[p] = pol.Name
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("fleet: no policy for device %q", share.Device.Name)
		}
		if f.names != nil && !slices.Equal(names, f.names) {
			return nil, fmt.Errorf("fleet: policies %v for device %q differ from %v — every device must resolve the same names in the same order",
				names, share.Device.Name, f.names)
		}
		f.names = names
		f.devices = append(f.devices, share.Device)
		f.devWeights = append(f.devWeights, share.Weight)
		f.cells = append(f.cells, cells)
	}
	return f, nil
}

// Spec derives machine id's identity. It is a pure function of
// (Config.Seed, id): the machine's rng chain is
// rng.New(Seed).Split(fleetLabel).Split(id+1), and the draws are, in
// order, the arrival offset, the device pick, and the workload seed; the
// per-execution app-pick stream is an independent split of the same chain
// (see newMixSource).
func (f *Fleet) Spec(id int) Spec {
	return f.specFrom(f.machineRNG(id))
}

// specFrom consumes the Spec draws from a machine's root rng chain, in
// the fixed order the determinism contract pins: arrival offset, device
// pick, workload seed. newMixSource replays these before splitting off
// the app-pick stream, so Spec and the source agree on the chain state.
func (f *Fleet) specFrom(r *rng.Source) Spec {
	var arrival trace.Time
	if f.cfg.Stagger > 0 {
		arrival = trace.FromSeconds(r.Range(0, f.cfg.Stagger.Seconds()))
	}
	dev := r.Pick(f.devWeights)
	seed := r.Uint64()
	return Spec{Arrival: arrival, Device: dev, WorkloadSeed: seed}
}

// machineRNG returns machine id's root rng.
func (f *Fleet) machineRNG(id int) *rng.Source {
	return rng.New(f.cfg.Seed).Split(fleetLabel).Split(uint64(id) + 1)
}

// appPickLabel splits the per-execution app-pick stream off the machine
// rng chain, after the Spec draws.
const appPickLabel = 0xA44

// StaticPolicy adapts fixed policies to Config.Policy for policies whose
// predictors do not depend on the device (Base, TP with an absolute
// timeout, the oracle).
func StaticPolicy(pols ...sim.Policy) func(disk.Params) ([]sim.Policy, error) {
	return func(disk.Params) ([]sim.Policy, error) { return pols, nil }
}
