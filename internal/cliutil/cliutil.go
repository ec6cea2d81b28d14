// Package cliutil keeps the trace-handling commands (pcapsim, tracegen,
// traceinspect) word-for-word consistent: the -from/-to/-pid/-pcfrom/
// -pcto filter block is registered from one place, and errors about a
// missing, unreadable or malformed trace argument are phrased by one
// helper. A user who learns one command's flags and error shapes has
// learned them all.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"time"

	"pcapsim/internal/trace"
)

// TraceFormats spells the writable on-disk trace formats, as used in
// -format help text and unknown-format errors.
const TraceFormats = "v2 or text"

// UnknownFormatError is the shared error for a -format value outside
// the accepted set (pass TraceFormats as want).
func UnknownFormatError(format, want string) error {
	return fmt.Errorf("unknown trace format %q (want %s)", format, want)
}

// MissingTraceError is the shared error for a command invoked without
// its required trace-file argument.
func MissingTraceError(usage string) error {
	return fmt.Errorf("missing trace file argument\nusage: %s", usage)
}

// TraceFileError wraps an error reading or decoding the trace file at
// path so every command reports it as "trace file <path>: <cause>". A
// *fs.PathError for the same path is unwrapped first — the path would
// otherwise appear twice.
func TraceFileError(path string, err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) && pe.Path == path {
		err = pe.Err
	}
	return fmt.Errorf("trace file %s: %w", path, err)
}

// OpenTrace opens the trace file argument read-only, phrasing failures
// through TraceFileError.
func OpenTrace(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, TraceFileError(path, err)
	}
	return f, nil
}

// PredicateFlags is the shared event-filter flag block. Register it,
// parse flags, then assemble the trace.Predicate with Predicate().
type PredicateFlags struct {
	From, To     time.Duration
	Pid          int
	PCFrom, PCTo string
}

// Register installs -from/-to/-pid/-pcfrom/-pcto on the default flag
// set. prefix qualifies each help string ("with -replay: " for pcapsim,
// "" for traceinspect) without changing the shared wording after it.
func (p *PredicateFlags) Register(prefix string) {
	flag.DurationVar(&p.From, "from", 0, prefix+"keep only events at or after this trace time")
	flag.DurationVar(&p.To, "to", 0, prefix+"keep only events at or before this trace time (0 = unbounded)")
	flag.IntVar(&p.Pid, "pid", 0, prefix+"keep only events of this process id")
	flag.StringVar(&p.PCFrom, "pcfrom", "", prefix+"keep only I/O events with program counter >= this value (hex with 0x)")
	flag.StringVar(&p.PCTo, "pcto", "", prefix+"keep only I/O events with program counter <= this value (hex with 0x)")
}

// Predicate assembles the filter, parsing the program-counter bounds
// (decimal or 0x-hex).
func (p *PredicateFlags) Predicate() (trace.Predicate, error) {
	pred := trace.Predicate{
		From: trace.FromSeconds(p.From.Seconds()),
		To:   trace.FromSeconds(p.To.Seconds()),
		Pid:  trace.PID(p.Pid),
	}
	var err error
	if pred.PCFrom, err = parsePC(p.PCFrom, "-pcfrom"); err != nil {
		return trace.Predicate{}, err
	}
	if pred.PCTo, err = parsePC(p.PCTo, "-pcto"); err != nil {
		return trace.Predicate{}, err
	}
	return pred, nil
}

// parsePC parses a program-counter flag value (decimal or 0x-hex).
func parsePC(s, flagName string) (trace.PC, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("%s: bad program counter %q: %w", flagName, s, err)
	}
	return trace.PC(v), nil
}
