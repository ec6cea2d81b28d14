// Package predictor defines the shutdown-predictor framework shared by
// every policy in the simulator, plus the two reference policies the paper
// compares against everywhere: the timeout predictor (TP) and the ideal
// (oracle) predictor.
//
// The model follows the paper's architecture (its Figures 4 and 5): each
// process of an application runs its own per-process predictor instance;
// instances of the same application share learned state (the application's
// prediction table); and a global combiner (package sim) merges the
// per-process decisions into the actual disk shutdown.
package predictor

import (
	"fmt"

	"pcapsim/internal/trace"
)

// Access is one disk access (an I/O that missed the file cache) as seen by
// a per-process predictor.
type Access struct {
	// Time is the arrival time of the access.
	Time trace.Time
	// PC is the program counter that triggered the I/O.
	PC trace.PC
	// FD is the file descriptor used.
	FD trace.FD
	// Access is the operation type.
	Access trace.Access
	// Block is the file location on disk.
	Block int64
}

// Source tells which mechanism produced a decision.
type Source uint8

// Decision sources.
const (
	// SourceNone: no shutdown will be issued for this idle period.
	SourceNone Source = iota
	// SourcePrimary: the policy's own predictor issued the decision.
	SourcePrimary
	// SourceBackup: the backup timeout predictor issued the decision.
	SourceBackup
)

// String returns the source name.
func (s Source) String() string {
	switch s {
	case SourceNone:
		return "none"
	case SourcePrimary:
		return "primary"
	case SourceBackup:
		return "backup"
	default:
		return fmt.Sprintf("source(%d)", uint8(s))
	}
}

// Decision is what a per-process predictor wants done after an access.
//
// If Shutdown is true, the disk should be shut down Delay after the
// access, unless another access by the same process arrives first (an
// arrival inside Delay cancels the shutdown — this implements both the
// sliding wait-window of dynamic predictors and the timer of timeout
// predictors). Delay is measured from Access.Time.
type Decision struct {
	Shutdown bool
	Delay    trace.Time
	Source   Source
}

// NoShutdown is the decision to keep the disk spinning.
var NoShutdown = Decision{}

// Process is the per-process predictor driven by the simulator. OnAccess
// is called for every disk access of the owning process, in time order,
// and returns the decision for the idle period that follows.
type Process interface {
	OnAccess(a Access) Decision
}

// Factory creates per-process predictor instances for one application.
// Implementations carry the application-wide learned state (e.g. PCAP's
// prediction table); NewProcess is called whenever a process is created.
//
// A Factory is reused across executions of the application to model
// prediction-table reuse; creating a fresh Factory per execution models
// the discard variants (PCAPa, LTa). The simulator steps every process
// of a run on one goroutine, so a Factory and its processes need not be
// safe for concurrent use.
type Factory interface {
	// Name returns the short policy name used in tables ("TP", "PCAP", …).
	Name() string
	// NewProcess returns a predictor for a newly created process.
	NewProcess(pid trace.PID) Process
}

// FutureAware is implemented by oracle predictors only. The simulator
// calls SetNextGap with the length of the idle period that will follow the
// upcoming access, immediately before OnAccess. Honest policies must not
// implement it.
type FutureAware interface {
	SetNextGap(gap trace.Time, known bool)
}

// Timeout is the classic timeout predictor (TP): after every access it
// schedules a shutdown Timeout later; any earlier access cancels it. The
// paper uses a 10-second timer.
type Timeout struct {
	timeout trace.Time
}

// NewTimeout returns a TP factory with the given timer. It panics if the
// timeout is not positive.
func NewTimeout(timeout trace.Time) *Timeout {
	if timeout <= 0 {
		panic("predictor: timeout must be positive")
	}
	return &Timeout{timeout: timeout}
}

// Name implements Factory.
func (t *Timeout) Name() string { return "TP" }

// Timeout returns the configured timer value.
func (t *Timeout) Timeout() trace.Time { return t.timeout }

// NewProcess implements Factory.
func (t *Timeout) NewProcess(trace.PID) Process { return timeoutProcess{t.timeout} }

type timeoutProcess struct{ timeout trace.Time }

func (p timeoutProcess) OnAccess(Access) Decision {
	// TP is its own primary mechanism.
	return Decision{Shutdown: true, Delay: p.timeout, Source: SourcePrimary}
}

// Oracle is the ideal predictor: it shuts down immediately at the start of
// every idle period that is at least Breakeven long, and never otherwise.
// It requires future knowledge via FutureAware and exists only to bound
// the attainable energy savings (Figure 8's "Ideal").
type Oracle struct {
	breakeven trace.Time
}

// NewOracle returns an oracle factory for the given breakeven time.
func NewOracle(breakeven trace.Time) *Oracle {
	if breakeven <= 0 {
		panic("predictor: breakeven must be positive")
	}
	return &Oracle{breakeven: breakeven}
}

// Name implements Factory.
func (o *Oracle) Name() string { return "Ideal" }

// NewProcess implements Factory.
func (o *Oracle) NewProcess(trace.PID) Process {
	return &oracleProcess{breakeven: o.breakeven}
}

type oracleProcess struct {
	breakeven trace.Time
	nextGap   trace.Time
	known     bool
}

// SetNextGap implements FutureAware.
func (p *oracleProcess) SetNextGap(gap trace.Time, known bool) {
	p.nextGap = gap
	p.known = known
}

func (p *oracleProcess) OnAccess(Access) Decision {
	if p.known && p.nextGap >= p.breakeven {
		return Decision{Shutdown: true, Delay: 0, Source: SourcePrimary}
	}
	return NoShutdown
}

// AlwaysOn is the base policy: it never shuts the disk down. Figure 8's
// "Base" bar.
type AlwaysOn struct{}

// Name implements Factory.
func (AlwaysOn) Name() string { return "Base" }

// NewProcess implements Factory.
func (AlwaysOn) NewProcess(trace.PID) Process { return alwaysOnProcess{} }

type alwaysOnProcess struct{}

func (alwaysOnProcess) OnAccess(Access) Decision { return NoShutdown }
