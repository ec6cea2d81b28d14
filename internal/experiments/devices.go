package experiments

import (
	"fmt"

	"pcapsim/internal/core"
	"pcapsim/internal/disk"
	"pcapsim/internal/sim"
)

// DeviceRow is one device profile's across-application results under the
// timeout predictor and PCAP.
type DeviceRow struct {
	Device    string
	Breakeven float64 // seconds
	// Long is the total number of shutdown opportunities across apps
	// (it grows as breakeven shrinks).
	Long int
	// TPSaved/PCAPSaved/IdealSaved are mean fractions of Base energy
	// eliminated.
	TPSaved, PCAPSaved, IdealSaved float64
	// PCAPMiss is PCAP's mean global misprediction fraction.
	PCAPMiss float64
}

// deviceSuite returns the memoized per-device sub-suite. A sub-suite
// keeps memoization and predictor breakeven configuration consistent with
// the device, while sharing the parent's trace cache: traces are device
// independent, so they are generated once for all devices. The suite's
// own drive needs no sub-suite: s already simulates it.
func (s *Suite) deviceSuite(dev disk.Params) (*Suite, error) {
	if dev == s.cfg.Disk {
		return s, nil
	}
	v, err := s.memo.do("devsuite/"+dev.Name, func() (any, error) {
		cfg := s.cfg
		cfg.Disk = dev
		ds, err := newSharedSuite(s.seed, cfg, s.traces)
		if err != nil {
			return nil, err
		}
		ds.scale = s.scale // sub-suites simulate the same scaled workload
		ds.sourceHook = s.sourceHook
		return ds, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Suite), nil
}

// devicePolicies are the policies evaluated per device.
func (s *Suite) devicePolicies() []sim.Policy {
	return []sim.Policy{s.PolicyBase(), s.PolicyTP(), s.PolicyPCAP(core.VariantBase), s.PolicyIdeal()}
}

// DevicesExperiment evaluates the predictors across device classes (the
// paper's §1 claim that the technique transfers to other I/O devices such
// as wireless interfaces). The breakeven time is the knob that moves: a
// WLAN interface breaks even in under a second, a desktop disk needs
// ~13 s, and each device's predictors are configured with its own
// breakeven.
func (s *Suite) DevicesExperiment() ([]DeviceRow, error) {
	var rows []DeviceRow
	for _, dev := range disk.Devices() {
		ds, err := s.deviceSuite(dev)
		if err != nil {
			return nil, err
		}

		row := DeviceRow{Device: dev.Name, Breakeven: dev.Breakeven.Seconds()}
		n := 0
		for _, app := range ds.Apps() {
			base, err := ds.Run(app, ds.PolicyBase())
			if err != nil {
				return nil, err
			}
			tp, err := ds.Run(app, ds.PolicyTP())
			if err != nil {
				return nil, err
			}
			pcap, err := ds.Run(app, ds.PolicyPCAP(core.VariantBase))
			if err != nil {
				return nil, err
			}
			ideal, err := ds.Run(app, ds.PolicyIdeal())
			if err != nil {
				return nil, err
			}
			bt := base.Energy.Total()
			if bt > 0 {
				row.TPSaved += 1 - tp.Energy.Total()/bt
				row.PCAPSaved += 1 - pcap.Energy.Total()/bt
				row.IdealSaved += 1 - ideal.Energy.Total()/bt
			}
			row.PCAPMiss += pcap.Global.Fractions().Miss
			row.Long += pcap.Global.LongPeriods
			n++
		}
		fn := float64(n)
		row.TPSaved /= fn
		row.PCAPSaved /= fn
		row.IdealSaved /= fn
		row.PCAPMiss /= fn
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDevices renders the device sweep as text.
func (s *Suite) RenderDevices() (string, error) {
	rows, err := s.DevicesExperiment()
	if err != nil {
		return "", err
	}
	t := newTable("Device", "Breakeven", "Opportunities", "TP saved", "PCAP saved", "Ideal saved", "PCAP miss")
	for _, r := range rows {
		t.Row(r.Device, fmt.Sprintf("%.2f s", r.Breakeven), fmt.Sprint(r.Long),
			pct(r.TPSaved), pct(r.PCAPSaved), pct(r.IdealSaved), pct(r.PCAPMiss))
	}
	return "Device sweep (paper §1: the technique transfers across I/O devices)\n\n" + t.String(), nil
}
