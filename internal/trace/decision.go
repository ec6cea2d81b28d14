package trace

// Decision records: one per global idle period a simulation run
// evaluates, in run order. The simulator streams them to a DecisionSink;
// DecisionLog keeps them in memory. DESIGN.md §13 describes how they are
// priced.

// Decision record flag bits.
const (
	// DecisionShutdown is set when the decision (as made, after any
	// counterfactual flip) shuts the disk down at At.
	DecisionShutdown uint8 = 1 << iota
	// DecisionTerminal marks the trailing period of an execution (from
	// the last access to the end of the trace): it has no next arrival,
	// so it is charged energy but never classified.
	DecisionTerminal
	// DecisionFlipped marks a decision inverted by a counterfactual
	// replay; recording runs never set it.
	DecisionFlipped
	// DecisionLong is set when the period's actual idle time reached the
	// drive's breakeven time — a shutdown opportunity.
	DecisionLong
)

// DecisionRecord captures one global shutdown decision: the idle period
// it governs, the access (pid, PC signature) leading into it, what the
// policy decided, and the energy/latency consequence of that decision —
// both as charged and under the counterfactual flip. Field semantics:
//
//   - Start/End delimit the period; End-Start is the actual idle length.
//   - At is the shutdown instant when DecisionShutdown is set; At-Start
//     is how long the policy waited before committing (the predicted-idle
//     confidence point: primary predictions commit after the wait-window,
//     the backup timeout after its timer).
//   - EnergyJ is the non-busy energy charged to the period under the
//     decision as made; EnergyDelta is EnergyJ minus the keep-spinning
//     energy of the same period, so a correct shutdown is negative and a
//     mispredicted one positive.
//   - FlipDelta is the change in the run's total energy if exactly this
//     decision were inverted (shutdown→keep spinning, keep
//     spinning→shutdown at period start). Because decisions never feed
//     back into predictor or cache state, the counterfactual replay's
//     measured energy delta equals FlipDelta up to float summation order
//     (the equivalence argument in DESIGN.md §13).
//   - Wait is the user-visible spin-up latency charged to the decision;
//     FlipWait is the latency change if flipped (negative when flipping
//     removes a wakeup).
type DecisionRecord struct {
	// Index is the decision's global index within the run, counting every
	// evaluated period across executions in run order.
	Index int64
	// Exec is the execution index the period belongs to.
	Exec int32
	// Pid and PC identify the access leading into the period.
	Pid PID
	PC  PC
	// Flags holds the Decision* bits.
	Flags uint8
	// Source is the predictor.Source of the shutdown decision (none /
	// primary / backup) as a raw byte, so the trace package does not
	// depend on the predictor package.
	Source uint8
	// Start, End, At: see above.
	Start Time
	End   Time
	At    Time
	// Wait is the spin-up latency charged to this decision.
	Wait Time
	// FlipWait is the latency change if the decision were flipped.
	FlipWait Time
	// EnergyJ, EnergyDelta, FlipDelta: see above (joules).
	EnergyJ     float64
	EnergyDelta float64
	FlipDelta   float64
}

// Shutdown reports whether the decision shut the disk down.
func (r DecisionRecord) Shutdown() bool { return r.Flags&DecisionShutdown != 0 }

// Terminal reports whether the period is an execution's trailing period.
func (r DecisionRecord) Terminal() bool { return r.Flags&DecisionTerminal != 0 }

// Flipped reports whether a counterfactual replay inverted the decision.
func (r DecisionRecord) Flipped() bool { return r.Flags&DecisionFlipped != 0 }

// Long reports whether the period reached breakeven.
func (r DecisionRecord) Long() bool { return r.Flags&DecisionLong != 0 }

// ActualIdle returns the period's idle length.
func (r DecisionRecord) ActualIdle() Time { return r.End - r.Start }

// DecisionLog is an in-memory DecisionSink: it appends every record to
// Records. Reset truncates the log keeping its capacity, so one log can
// be recycled across runs without reallocating.
type DecisionLog struct {
	Records []DecisionRecord
}

// Record appends rec to the log.
func (l *DecisionLog) Record(rec DecisionRecord) { l.Records = append(l.Records, rec) }

// Reset truncates the log, keeping capacity.
func (l *DecisionLog) Reset() { l.Records = l.Records[:0] }
