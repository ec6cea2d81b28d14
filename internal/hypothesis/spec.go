// Package hypothesis turns the simulator into a verification instrument:
// a structured experiment spec — hypothesis statement, parameters,
// controls, success criteria — runs candidate and baseline policies over
// one workload, records every shutdown decision, and renders a verdict
// with per-decision energy attribution and an optional counterfactual
// replay that re-runs the simulation with selected decisions flipped.
//
// The spec is JSON on disk (see examples/pcap-vs-timeout.json) and is
// executed by `pcapsim -experiment spec.json`. DESIGN.md §13 documents
// the schema and the flip-replay equivalence argument the attribution
// rests on.
package hypothesis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"pcapsim/internal/disk"
	"pcapsim/internal/experiments"
	"pcapsim/internal/workload"
)

// Criterion is one success criterion: a named metric compared against a
// threshold. The metric names are listed by MetricNames; Op is one of
// ">=", ">", "<=", "<", "==", "!=". Tolerance applies to the equality
// operators: "==" passes when |actual-value| <= tolerance, "!=" when it
// exceeds it.
type Criterion struct {
	Metric    string  `json:"metric"`
	Op        string  `json:"op"`
	Value     float64 `json:"value"`
	Tolerance float64 `json:"tolerance,omitempty"`
}

// validOps are the comparison operators a criterion may use.
var validOps = map[string]bool{
	">=": true, ">": true, "<=": true, "<": true, "==": true, "!=": true,
}

// Counterfactual selects decisions of the candidate run to flip in a
// replay. Flip is "worst" (the decision whose inversion saves the most
// energy, i.e. most negative FlipDelta) or "index" (the decision at
// Index). TopN bounds the attribution table (default 5).
type Counterfactual struct {
	Flip  string `json:"flip"`
	Index int64  `json:"index,omitempty"`
	TopN  int    `json:"topn,omitempty"`
}

// Spec is one executable hypothesis. Candidate and Baseline name policies
// from experiments.ReplayPolicyNames; App names one of the paper's
// applications; Device optionally selects a drive profile from
// disk.Devices (default: the paper's Fujitsu drive). Seed defaults to
// experiments.DefaultSeed and Scale to 1 — the controls that pin the
// workload, so a spec re-run anywhere reproduces the same virtual world
// byte for byte.
type Spec struct {
	Name           string          `json:"name"`
	Hypothesis     string          `json:"hypothesis"`
	App            string          `json:"app"`
	Candidate      string          `json:"candidate"`
	Baseline       string          `json:"baseline"`
	Seed           uint64          `json:"seed,omitempty"`
	Scale          int             `json:"scale,omitempty"`
	Device         string          `json:"device,omitempty"`
	Criteria       []Criterion     `json:"criteria"`
	Counterfactual *Counterfactual `json:"counterfactual,omitempty"`
}

// Parse decodes and validates a spec. Unknown fields, trailing data and
// semantic errors (unknown app, policy, device, metric or operator) all
// error; a nil error guarantees the spec is runnable.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("hypothesis: parsing spec: %w", err)
	}
	// A second Decode must hit EOF: concatenated JSON documents, or stray
	// bytes, are not a spec.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("hypothesis: parsing spec: trailing data after JSON document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec against the registries it draws from.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("hypothesis: spec needs a name")
	}
	if s.Hypothesis == "" {
		return fmt.Errorf("hypothesis: spec %q needs a hypothesis statement", s.Name)
	}
	if _, ok := workload.ByName(s.App); !ok {
		return fmt.Errorf("hypothesis: spec %q: unknown app %q (known: %s)", s.Name, s.App, appNames())
	}
	for _, role := range []struct{ label, policy string }{
		{"candidate", s.Candidate}, {"baseline", s.Baseline},
	} {
		if !knownPolicy(role.policy) {
			return fmt.Errorf("hypothesis: spec %q: unknown %s policy %q (known: %s)",
				s.Name, role.label, role.policy, strings.Join(experiments.ReplayPolicyNames(), ", "))
		}
	}
	if s.Scale < 0 {
		return fmt.Errorf("hypothesis: spec %q: negative scale %d", s.Name, s.Scale)
	}
	if s.Device != "" {
		if _, ok := DeviceByName(s.Device); !ok {
			return fmt.Errorf("hypothesis: spec %q: unknown device %q (known: %s)", s.Name, s.Device, deviceNames())
		}
	}
	if len(s.Criteria) == 0 {
		return fmt.Errorf("hypothesis: spec %q needs at least one criterion", s.Name)
	}
	for i, c := range s.Criteria {
		if !knownMetric(c.Metric) {
			return fmt.Errorf("hypothesis: spec %q criterion %d: unknown metric %q (known: %s)",
				s.Name, i, c.Metric, strings.Join(MetricNames(), ", "))
		}
		if !validOps[c.Op] {
			return fmt.Errorf("hypothesis: spec %q criterion %d: unknown op %q", s.Name, i, c.Op)
		}
		if c.Tolerance < 0 {
			return fmt.Errorf("hypothesis: spec %q criterion %d: negative tolerance", s.Name, i)
		}
	}
	if cf := s.Counterfactual; cf != nil {
		switch cf.Flip {
		case "worst":
		case "index":
			if cf.Index < 0 {
				return fmt.Errorf("hypothesis: spec %q: negative counterfactual index", s.Name)
			}
		default:
			return fmt.Errorf("hypothesis: spec %q: counterfactual flip must be \"worst\" or \"index\", got %q", s.Name, cf.Flip)
		}
		if cf.TopN < 0 {
			return fmt.Errorf("hypothesis: spec %q: negative counterfactual topn", s.Name)
		}
	}
	return nil
}

// Encode renders the spec in canonical form: indented JSON, struct field
// order, no HTML escaping (operators like ">=" stay literal), trailing
// newline. Encode∘Parse is a fixed point — re-encoding a parsed canonical
// spec reproduces it byte for byte (the fuzz target enforces this).
func (s *Spec) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, fmt.Errorf("hypothesis: encoding spec: %w", err)
	}
	return buf.Bytes(), nil
}

// seed returns the effective workload seed.
func (s *Spec) seed() uint64 {
	if s.Seed == 0 {
		return experiments.DefaultSeed
	}
	return s.Seed
}

// scale returns the effective workload scale.
func (s *Spec) scale() int {
	if s.Scale == 0 {
		return 1
	}
	return s.Scale
}

// DeviceByName resolves a case-insensitive device name against
// disk.Devices.
func DeviceByName(name string) (disk.Params, bool) {
	for _, d := range disk.Devices() {
		if strings.EqualFold(d.Name, name) {
			return d, true
		}
	}
	return disk.Params{}, false
}

// knownPolicy reports whether name is an accepted replay policy.
func knownPolicy(name string) bool {
	for _, n := range experiments.ReplayPolicyNames() {
		if strings.EqualFold(name, n) {
			return true
		}
	}
	return false
}

// appNames lists the workload registry for error messages.
func appNames() string {
	apps := workload.Apps()
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// deviceNames lists the device registry for error messages.
func deviceNames() string {
	devs := disk.Devices()
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.Name
	}
	return strings.Join(names, ", ")
}
