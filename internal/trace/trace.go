// Package trace defines the I/O trace record model used throughout the
// simulator.
//
// The schema mirrors what the paper collects with its modified strace:
// for every I/O operation the program counter that triggered it, the
// access type, the time, the file descriptor, and the file location on
// disk; plus fork and exit events of the processes within each traced
// application. Each application execution yields one Trace; a workload is
// a sequence of Traces (one per execution).
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// Time is a simulation timestamp in microseconds since the start of the
// containing execution. Integer microseconds keep event ordering exact and
// arithmetic associative, which floating-point seconds would not.
type Time int64

// Common Time conversion helpers.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time {
	if s < 0 {
		return Time(s*1e6 - 0.5)
	}
	return Time(s*1e6 + 0.5)
}

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// Duration returns t as a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Microsecond }

// String formats t as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// PC is a program counter value: the address of the application
// instruction that triggered an I/O operation. The predictors treat PCs as
// opaque tokens; their only required property is stability across
// executions of the same application.
type PC uint32

// PID identifies a process within an application trace.
type PID int32

// FD is a file descriptor number as seen by the traced process.
type FD int32

// Kind discriminates trace events.
type Kind uint8

// Event kinds.
const (
	// KindIO is an I/O operation performed by a process.
	KindIO Kind = iota
	// KindFork records the creation of a child process by Pid; the new
	// process id is in Child.
	KindFork
	// KindExit records the termination of process Pid.
	KindExit
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindIO:
		return "io"
	case KindFork:
		return "fork"
	case KindExit:
		return "exit"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Access is the type of an I/O operation.
type Access uint8

// Access types, matching what the modified strace distinguishes.
const (
	AccessRead Access = iota
	AccessWrite
	AccessOpen
	AccessClose
)

// String returns the lowercase name of the access type.
func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessOpen:
		return "open"
	case AccessClose:
		return "close"
	default:
		return fmt.Sprintf("access(%d)", uint8(a))
	}
}

// Event is one trace record.
type Event struct {
	// Time is when the event occurred, relative to execution start.
	Time Time
	// Pid is the process performing the event.
	Pid PID
	// Kind discriminates I/O, fork and exit events.
	Kind Kind

	// The remaining fields are meaningful for KindIO only, except Child
	// which is meaningful for KindFork.

	// Access is the I/O operation type.
	Access Access
	// PC is the application program counter that triggered the I/O.
	PC PC
	// FD is the file descriptor the operation used.
	FD FD
	// Block is the file location on disk (logical block number).
	Block int64
	// Size is the number of bytes transferred.
	Size int32
	// Child is the pid created by a KindFork event.
	Child PID
}

// IsIO reports whether the event is an I/O operation.
func (e Event) IsIO() bool { return e.Kind == KindIO }

// String renders the event in the text trace format (see codec.go).
func (e Event) String() string {
	switch e.Kind {
	case KindFork:
		return fmt.Sprintf("%d fork %d child=%d", int64(e.Time), e.Pid, e.Child)
	case KindExit:
		return fmt.Sprintf("%d exit %d", int64(e.Time), e.Pid)
	default:
		return fmt.Sprintf("%d io %d %s pc=0x%x fd=%d block=%d size=%d",
			int64(e.Time), e.Pid, e.Access, uint32(e.PC), int32(e.FD), e.Block, e.Size)
	}
}

// Trace is the recorded event stream of one application execution.
type Trace struct {
	// App is the application name (e.g. "mozilla").
	App string
	// Execution is the zero-based index of this execution within the
	// workload.
	Execution int
	// Events holds the records in non-decreasing time order.
	Events []Event
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// IOCount returns the number of I/O events.
func (t *Trace) IOCount() int {
	n := 0
	for _, e := range t.Events {
		if e.IsIO() {
			n++
		}
	}
	return n
}

// Pids returns the sorted set of process ids that appear in the trace.
func (t *Trace) Pids() []PID {
	seen := make(map[PID]bool)
	for _, e := range t.Events {
		seen[e.Pid] = true
		if e.Kind == KindFork {
			seen[e.Child] = true
		}
	}
	pids := make([]PID, 0, len(seen))
	for p := range seen {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}

// Duration returns the time of the last event, or zero for an empty trace.
func (t *Trace) Duration() Time {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].Time
}

// SortStable orders events by time, preserving the relative order of
// equal-time events (generators may emit same-microsecond records).
func (t *Trace) SortStable() { SortEvents(t.Events) }

// SortEvents stably orders a bare event slice by time — the same ordering
// SortStable applies, exposed for streaming emitters that recycle one
// event buffer instead of building a Trace. Sorted input, which most
// generated executions are, costs one scan.
func SortEvents(events []Event) {
	byTime := func(a, b Event) int { return cmp.Compare(a.Time, b.Time) }
	if !slices.IsSortedFunc(events, byTime) {
		slices.SortStableFunc(events, byTime)
	}
}

// Validate checks structural invariants of the trace:
//   - events are in non-decreasing time order;
//   - every I/O or exit belongs to a live (started, unexited) process;
//   - forks do not reuse a live pid;
//   - sizes are non-negative and I/O events carry a PC.
//
// The first process observed (lowest pid in the first event) is treated as
// the initial process of the execution.
func (t *Trace) Validate() error {
	if len(t.Events) == 0 {
		return nil
	}
	v := NewValidator(t.App, t.Execution)
	for _, e := range t.Events {
		if err := v.Event(e); err != nil {
			return err
		}
	}
	return nil
}
