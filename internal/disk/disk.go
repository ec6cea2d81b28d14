// Package disk models the power behaviour of a hard disk drive for
// dynamic power management studies.
//
// The model is the analytic power model the paper evaluates on (its
// Table 2): a disk is busy serving I/O, idle but spinning, or standing by
// (spun down), and every shutdown + spin-up cycle costs a fixed energy
// and time. Energy is the integral of per-state power plus the fixed
// per-cycle energies.
package disk

import (
	"fmt"

	"pcapsim/internal/trace"
)

// Params describes a disk's power states and transition costs.
type Params struct {
	// Name identifies the modelled drive.
	Name string
	// BusyPower is consumed while serving I/O (watts).
	BusyPower float64
	// IdlePower is consumed while spinning idle (watts).
	IdlePower float64
	// StandbyPower is consumed while spun down (watts).
	StandbyPower float64
	// SpinUpEnergy is the fixed energy of one spin-up (joules).
	SpinUpEnergy float64
	// ShutdownEnergy is the fixed energy of one shutdown (joules).
	ShutdownEnergy float64
	// SpinUpTime is the duration of a spin-up transition.
	SpinUpTime trace.Time
	// ShutdownTime is the duration of a shutdown transition.
	ShutdownTime trace.Time
	// Breakeven is the minimum device-off time for a shutdown to save
	// energy.
	Breakeven trace.Time
	// LowPowerIdlePower, if positive, is an intermediate low-power idle
	// state the drive can enter instantly (unloaded heads, reduced
	// electronics). It implements the paper's future-work extension: the
	// sliding wait-window can park the disk in this state immediately and
	// only spin down fully once the window elapses. Zero means the drive
	// has no such state.
	LowPowerIdlePower float64
}

// WithLowPowerIdle returns a copy of p with the intermediate low-power
// idle state set (see Params.LowPowerIdlePower).
func (p Params) WithLowPowerIdle(watts float64) Params {
	p.LowPowerIdlePower = watts
	return p
}

// FujitsuMHF2043AT returns the parameters of the Fujitsu MHF 2043AT drive
// used throughout the paper (Table 2).
func FujitsuMHF2043AT() Params {
	return Params{
		Name:           "Fujitsu MHF 2043AT",
		BusyPower:      2.2,
		IdlePower:      0.95,
		StandbyPower:   0.13,
		SpinUpEnergy:   4.4,
		ShutdownEnergy: 0.36,
		SpinUpTime:     trace.FromSeconds(1.6),
		ShutdownTime:   trace.FromSeconds(0.67),
		Breakeven:      trace.FromSeconds(5.43),
	}
}

// Validate checks that the parameters are physically sensible.
func (p Params) Validate() error {
	switch {
	case p.BusyPower <= 0:
		return fmt.Errorf("disk: busy power must be positive, got %g", p.BusyPower)
	case p.IdlePower <= 0:
		return fmt.Errorf("disk: idle power must be positive, got %g", p.IdlePower)
	case p.StandbyPower < 0:
		return fmt.Errorf("disk: standby power must be non-negative, got %g", p.StandbyPower)
	case p.StandbyPower >= p.IdlePower:
		return fmt.Errorf("disk: standby power %g must be below idle power %g", p.StandbyPower, p.IdlePower)
	case p.IdlePower > p.BusyPower:
		return fmt.Errorf("disk: idle power %g must not exceed busy power %g", p.IdlePower, p.BusyPower)
	case p.SpinUpEnergy < 0 || p.ShutdownEnergy < 0:
		return fmt.Errorf("disk: transition energies must be non-negative")
	case p.SpinUpTime < 0 || p.ShutdownTime < 0:
		return fmt.Errorf("disk: transition times must be non-negative")
	case p.Breakeven <= 0:
		return fmt.Errorf("disk: breakeven must be positive, got %v", p.Breakeven)
	case p.LowPowerIdlePower != 0 && (p.LowPowerIdlePower <= p.StandbyPower || p.LowPowerIdlePower >= p.IdlePower):
		return fmt.Errorf("disk: low-power idle %g must lie between standby %g and idle %g",
			p.LowPowerIdlePower, p.StandbyPower, p.IdlePower)
	}
	return nil
}

// CycleEnergy returns the fixed energy cost of one shutdown + spin-up
// cycle (joules).
func (p Params) CycleEnergy() float64 { return p.ShutdownEnergy + p.SpinUpEnergy }

// CycleTime returns the total duration of one shutdown + spin-up cycle.
func (p Params) CycleTime() trace.Time { return p.ShutdownTime + p.SpinUpTime }

// ComputeBreakeven derives the breakeven time from the other parameters:
// the idle-period length T at which staying idle costs exactly as much as
// shutting down, standing by for the remainder, and spinning back up.
//
//	IdlePower·T = ShutdownEnergy + SpinUpEnergy
//	            + StandbyPower·(T − ShutdownTime − SpinUpTime)
//
// The returned value is clamped to be at least the cycle time, since a
// shutdown cannot pay off before the transitions themselves complete.
func (p Params) ComputeBreakeven() trace.Time {
	denom := p.IdlePower - p.StandbyPower
	if denom <= 0 {
		return p.CycleTime()
	}
	cycle := p.CycleTime().Seconds()
	t := (p.CycleEnergy() - p.StandbyPower*cycle) / denom
	if t < cycle {
		t = cycle
	}
	return trace.FromSeconds(t)
}

// ShutdownSavings returns the energy saved (possibly negative) by shutting
// the disk down for an off-period of the given length, relative to idling
// through it. The off period includes the transition times.
func (p Params) ShutdownSavings(off trace.Time) float64 {
	if off < 0 {
		off = 0
	}
	idleCost := p.IdlePower * off.Seconds()
	standby := off - p.CycleTime()
	if standby < 0 {
		standby = 0
	}
	shutdownCost := p.CycleEnergy() + p.StandbyPower*standby.Seconds()
	return idleCost - shutdownCost
}

// EnergyBreakdown accumulates energy by accounting bucket (joules).
type EnergyBreakdown struct {
	// Busy is energy consumed serving I/O.
	Busy float64
	// IdleShort is idle-state energy spent inside idle periods shorter
	// than breakeven.
	IdleShort float64
	// IdleLong is idle-state plus standby energy spent inside idle
	// periods at least as long as breakeven.
	IdleLong float64
	// PowerCycle is the fixed shutdown + spin-up energy of every issued
	// shutdown, correct or not.
	PowerCycle float64
}

// Total returns the sum of all buckets.
func (b EnergyBreakdown) Total() float64 {
	return b.Busy + b.IdleShort + b.IdleLong + b.PowerCycle
}

// Add accumulates o into b.
func (b *EnergyBreakdown) Add(o EnergyBreakdown) {
	b.Busy += o.Busy
	b.IdleShort += o.IdleShort
	b.IdleLong += o.IdleLong
	b.PowerCycle += o.PowerCycle
}
