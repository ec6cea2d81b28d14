package disk

import (
	"math"
	"testing"
	"testing/quick"

	"pcapsim/internal/trace"
)

func TestFujitsuParams(t *testing.T) {
	p := FujitsuMHF2043AT()
	if err := p.Validate(); err != nil {
		t.Fatalf("paper parameters invalid: %v", err)
	}
	// Table 2 values, exactly.
	if p.BusyPower != 2.2 || p.IdlePower != 0.95 || p.StandbyPower != 0.13 {
		t.Error("power values differ from Table 2")
	}
	if p.SpinUpEnergy != 4.4 || p.ShutdownEnergy != 0.36 {
		t.Error("transition energies differ from Table 2")
	}
	if p.SpinUpTime != trace.FromSeconds(1.6) || p.ShutdownTime != trace.FromSeconds(0.67) {
		t.Error("transition times differ from Table 2")
	}
	if p.Breakeven != trace.FromSeconds(5.43) {
		t.Error("breakeven differs from Table 2")
	}
}

func TestValidateRejections(t *testing.T) {
	base := FujitsuMHF2043AT()
	mutate := []func(*Params){
		func(p *Params) { p.BusyPower = 0 },
		func(p *Params) { p.IdlePower = -1 },
		func(p *Params) { p.StandbyPower = -0.1 },
		func(p *Params) { p.StandbyPower = p.IdlePower },
		func(p *Params) { p.IdlePower = p.BusyPower + 1 },
		func(p *Params) { p.SpinUpEnergy = -1 },
		func(p *Params) { p.SpinUpTime = -trace.Second },
		func(p *Params) { p.Breakeven = 0 },
	}
	for i, m := range mutate {
		p := base
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestComputeBreakeven(t *testing.T) {
	p := FujitsuMHF2043AT()
	// The derived breakeven must be the point where ShutdownSavings is
	// approximately zero.
	be := p.ComputeBreakeven()
	if s := p.ShutdownSavings(be); math.Abs(s) > 0.01 {
		t.Errorf("savings at computed breakeven = %g J, want ~0", s)
	}
	// And it must not be below the physical cycle time.
	if be < p.CycleTime() {
		t.Errorf("breakeven %v below cycle time %v", be, p.CycleTime())
	}
	// Degenerate case: standby no cheaper than idle.
	deg := p
	deg.StandbyPower = deg.IdlePower // invalid per Validate, but Compute must not divide by zero
	if got := deg.ComputeBreakeven(); got != deg.CycleTime() {
		t.Errorf("degenerate breakeven = %v, want cycle time", got)
	}
}

func TestComputedVsPaperBreakeven(t *testing.T) {
	// The paper quotes 5.43 s for this drive; the analytic value from its
	// own Table 2 numbers should be in the same ballpark (the paper's
	// figure includes measurement detail our formula does not).
	p := FujitsuMHF2043AT()
	got := p.ComputeBreakeven().Seconds()
	if got < 5.3 || got > 5.6 {
		t.Errorf("computed breakeven %.2f s, want ~5.45 s (paper quotes 5.43 s)", got)
	}
}

func TestShutdownSavings(t *testing.T) {
	p := FujitsuMHF2043AT()
	if s := p.ShutdownSavings(0); s >= 0 {
		t.Errorf("zero off-time should lose energy, got %g", s)
	}
	if s := p.ShutdownSavings(trace.FromSeconds(100)); s <= 0 {
		t.Errorf("100 s off-time should save energy, got %g", s)
	}
	if s := p.ShutdownSavings(-trace.Second); s != p.ShutdownSavings(0) {
		t.Errorf("negative off-time not clamped")
	}
}

func TestShutdownSavingsMonotonic(t *testing.T) {
	p := FujitsuMHF2043AT()
	f := func(a, b uint32) bool {
		ta := trace.Time(a % 1_000_000_000)
		tb := trace.Time(b % 1_000_000_000)
		if ta > tb {
			ta, tb = tb, ta
		}
		return p.ShutdownSavings(ta) <= p.ShutdownSavings(tb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyBreakdown(t *testing.T) {
	b := EnergyBreakdown{Busy: 1, IdleShort: 2, IdleLong: 3, PowerCycle: 4}
	if b.Total() != 10 {
		t.Errorf("Total = %g", b.Total())
	}
	b.Add(EnergyBreakdown{Busy: 1, IdleShort: 1, IdleLong: 1, PowerCycle: 1})
	if b.Total() != 14 {
		t.Errorf("after Add, Total = %g", b.Total())
	}
}
