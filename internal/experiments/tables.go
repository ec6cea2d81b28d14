package experiments

import (
	"fmt"

	"pcapsim/internal/core"
	"pcapsim/internal/sim"
)

// Table1Row is one application's execution details (the paper's Table 1).
type Table1Row struct {
	App        string
	Executions int
	// GlobalIdle and LocalIdle count idle periods long enough to save
	// energy, over the app's merged stream and per process respectively.
	GlobalIdle int
	LocalIdle  int
	TotalIOs   int
}

// basePolicies is Table 1's one run, Base, which the sweeps also read.
func (s *Suite) basePolicies() []sim.Policy { return []sim.Policy{s.PolicyBase()} }

// Table1 reproduces the paper's Table 1: applications and execution
// details. Idle-period counts are policy-independent, so they are taken
// from the Base run.
func (s *Suite) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, app := range s.Apps() {
		rs, err := s.results(app, s.PolicyBase())
		if err != nil {
			return nil, err
		}
		res := rs[0]
		rows = append(rows, Table1Row{
			App:        app.Name,
			Executions: res.Executions,
			GlobalIdle: res.Global.LongPeriods,
			LocalIdle:  res.Local.LongPeriods,
			TotalIOs:   res.TotalIOs,
		})
	}
	return rows, nil
}

// RenderTable1 renders Table1 as text.
func (s *Suite) RenderTable1() (string, error) {
	rows, err := s.Table1()
	if err != nil {
		return "", err
	}
	t := newTable("Appl.", "Executions", "Idle (global)", "Idle (local)", "Total I/Os")
	for _, r := range rows {
		t.Row(r.App, fmt.Sprint(r.Executions), fmt.Sprint(r.GlobalIdle),
			fmt.Sprint(r.LocalIdle), fmt.Sprint(r.TotalIOs))
	}
	return "Table 1: applications and execution details\n\n" + t.String(), nil
}

// RenderTable2 renders the disk model parameters (the paper's Table 2).
func (s *Suite) RenderTable2() string {
	d := s.cfg.Disk
	t := newTable("State / transition", "Value")
	t.Row("Drive", d.Name)
	t.Row("Busy power", fmt.Sprintf("%.2f W", d.BusyPower))
	t.Row("Idle power", fmt.Sprintf("%.2f W", d.IdlePower))
	t.Row("Standby power", fmt.Sprintf("%.2f W", d.StandbyPower))
	t.Row("Spin-up energy", fmt.Sprintf("%.2f J", d.SpinUpEnergy))
	t.Row("Shutdown energy", fmt.Sprintf("%.2f J", d.ShutdownEnergy))
	t.Row("Spin-up time", fmt.Sprintf("%.2f s", d.SpinUpTime.Seconds()))
	t.Row("Shutdown time", fmt.Sprintf("%.2f s", d.ShutdownTime.Seconds()))
	t.Row("Breakeven time", fmt.Sprintf("%.2f s", d.Breakeven.Seconds()))
	return "Table 2: states and state transitions of the simulated disk\n\n" + t.String()
}

// Table3Row is one application's prediction-table storage (Table 3).
type Table3Row struct {
	App     string
	Entries map[core.Variant]int
}

// table3Variants are the columns of Table 3.
var table3Variants = []core.Variant{core.VariantBase, core.VariantH, core.VariantF, core.VariantFH}

// table3Policies are Table 3's runs, one per PCAP variant.
func (s *Suite) table3Policies() []sim.Policy {
	pols := make([]sim.Policy, len(table3Variants))
	for i, v := range table3Variants {
		pols[i] = s.PolicyPCAP(v)
	}
	return pols
}

// Table3 reproduces the paper's Table 3: prediction-table entries per
// application for every PCAP variant after all executions.
func (s *Suite) Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, app := range s.Apps() {
		rs, err := s.results(app, s.table3Policies()...)
		if err != nil {
			return nil, err
		}
		row := Table3Row{App: app.Name, Entries: make(map[core.Variant]int)}
		for i, v := range table3Variants {
			row.Entries[v] = rs[i].StateEntries
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable3 renders Table3 as text, including the paper's 4-byte-per-
// entry storage figure.
func (s *Suite) RenderTable3() (string, error) {
	rows, err := s.Table3()
	if err != nil {
		return "", err
	}
	t := newTable("Application", "PCAP", "PCAPh", "PCAPf", "PCAPfh", "PCAPfh bytes")
	for _, r := range rows {
		t.Row(r.App,
			fmt.Sprint(r.Entries[core.VariantBase]),
			fmt.Sprint(r.Entries[core.VariantH]),
			fmt.Sprint(r.Entries[core.VariantF]),
			fmt.Sprint(r.Entries[core.VariantFH]),
			fmt.Sprint(4*r.Entries[core.VariantFH]))
	}
	return "Table 3: prediction-table storage requirements (entries)\n\n" + t.String(), nil
}
