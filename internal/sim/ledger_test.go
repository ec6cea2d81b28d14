package sim

import (
	"math"
	"testing"

	"pcapsim/internal/core"
	"pcapsim/internal/disk"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// ledgerSeed is the experiment suite's default workload seed.
const ledgerSeed = 20040214

// TestDecisionLedgerIdentity: the decision records of a traced run are a
// complete ledger of its non-busy energy and latency. Every joule of
// idle, standby and power-cycle energy the result reports is either one
// record's EnergyJ or leading idle — the spinning time before an
// execution's first disk access, or all of a silent execution — which is
// charged outside any period. Every microsecond of spin-up wait is one
// record's Wait, and each wakeup is one record with a wait. Covered: every
// app under base, tp, pcap and ideal on the default drive, plus pcap with
// the low-power wait-window on every catalog drive that has that state.
func TestDecisionLedgerIdentity(t *testing.T) {
	pcap := Policy{
		Name:       "PCAP",
		NewFactory: func() predictor.Factory { return core.MustNew(core.DefaultConfig(core.VariantBase)) },
		Reuse:      true,
	}
	type ledgerCase struct {
		cfg Config
		pol Policy
	}
	def := DefaultConfig()
	var cases []ledgerCase
	for _, pol := range []Policy{basePolicy(), tpPolicy(10 * trace.Second), pcap, idealPolicy(def.Disk.Breakeven)} {
		cases = append(cases, ledgerCase{def, pol})
	}
	for _, d := range disk.Catalog() {
		if d.LowPowerIdlePower > 0 {
			cfg := def
			cfg.Disk, cfg.LowPowerWaitWindow = d, true
			cases = append(cases, ledgerCase{cfg, pcap})
		}
	}
	for _, app := range workload.Apps() {
		traces := app.Traces(ledgerSeed)
		if testing.Short() {
			traces = traces[:2]
		}
		for _, c := range cases {
			r, err := NewRunner(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := app.Name + "/" + c.pol.Name + "/" + c.cfg.Disk.Name
			var leadingIdleJ float64
			for _, tr := range traces {
				ex, err := new(prepState).prepare(tr, c.cfg.Cache)
				if err != nil {
					t.Fatal(err)
				}
				lead := ex.end
				if len(ex.accesses) > 0 {
					lead = ex.accesses[0].Time
				}
				leadingIdleJ += lead.Seconds() * c.cfg.Disk.IdlePower
			}
			var log trace.DecisionLog
			res, err := r.RunSourceTraced(trace.NewSliceSource(traces...), c.pol, TraceOptions{Sink: &log})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var ledgerJ float64
			var wait trace.Time
			waits := 0
			for _, rec := range log.Records {
				ledgerJ += rec.EnergyJ
				wait += rec.Wait
				if rec.Wait > 0 {
					waits++
				}
			}
			want := res.Energy.IdleShort + res.Energy.IdleLong + res.Energy.PowerCycle
			got := ledgerJ + leadingIdleJ
			if rel := math.Abs(got-want) / want; !(rel <= 1e-12) {
				t.Errorf("%s: records %.9f J + leading idle %.9f J = %.9f J, result charges %.9f J (rel err %g)",
					name, ledgerJ, leadingIdleJ, got, want, rel)
			}
			if wait != res.WaitTime {
				t.Errorf("%s: records wait %v, result %v", name, wait, res.WaitTime)
			}
			if waits != res.Wakeups {
				t.Errorf("%s: %d records with a wait, result reports %d wakeups", name, waits, res.Wakeups)
			}
		}
	}
}
