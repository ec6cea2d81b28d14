package sim

import (
	"fmt"

	"pcapsim/internal/predictor"
)

// Policy describes how a shutdown policy is instantiated over the multiple
// executions of an application.
type Policy struct {
	// Name labels the policy in results ("TP", "PCAP", "PCAPa", …).
	Name string
	// NewFactory returns a fresh application-wide predictor factory.
	NewFactory func() predictor.Factory
	// Reuse keeps one factory — and therefore its learned state, such as
	// PCAP's prediction table — alive across executions, modelling the
	// paper's prediction-table reuse. When false, a fresh factory is
	// created for every execution (the paper's PCAPa / LTa).
	Reuse bool
	// GlobalOracle marks the ideal predictor: the runner bypasses the
	// per-process combiner and shuts down exactly at the start of every
	// long global idle period.
	GlobalOracle bool
}

// Validate checks the policy is well-formed.
func (p Policy) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("sim: policy needs a name")
	}
	if p.NewFactory == nil && !p.GlobalOracle {
		return fmt.Errorf("sim: policy %s needs a factory", p.Name)
	}
	return nil
}

// SizedFactory is implemented by factories that can report the size of
// their learned state in entries (PCAP table entries, LT tree nodes);
// used for the paper's Table 3.
type SizedFactory interface {
	StateSize() int
}
