// Package core implements PCAP, the Program-Counter Access Predictor —
// the paper's primary contribution.
//
// PCAP observes the sequence of program counters (PCs) that trigger a
// process's disk I/Os. The PCs accumulated since the last long idle period
// form a *path*, encoded as a 4-byte *signature* by arithmetic addition
// (after Lai & Falsafi's last-touch predictor). When an idle period longer
// than the disk's breakeven time ends, the signature that led into it is
// recorded in the application's prediction table; when the same signature
// recurs, PCAP predicts a long idle period and schedules an immediate
// shutdown, guarded by a sliding wait-window that cancels the shutdown if
// another access arrives quickly. While a signature is untrained, a backup
// timeout predictor covers the idle period.
//
// The optimizations of the paper's Section 4 are all here:
//
//   - PCAPh: an idle-period history bit-vector (0 = idle shorter than
//     breakeven, 1 = longer; periods under the wait-window are skipped)
//     augments the table key and disambiguates subpath aliasing.
//   - PCAPf: the file descriptor of the access preceding the idle period
//     augments the table key.
//   - Prediction-table reuse: the table is application-wide state, shared
//     by all processes of the application and across executions, and can
//     be serialized to the application's initialization file (package
//     persist). Discarding it between executions yields the paper's PCAPa.
//   - LRU bounding of the table for long-running workloads.
package core

import (
	"fmt"

	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// Encoding selects how a PC path folds into a 4-byte signature.
type Encoding uint8

// Path encodings.
const (
	// EncodingSum is the paper's arithmetic addition of PCs: order
	// insensitive, one add per access. The paper observed no aliasing
	// with it.
	EncodingSum Encoding = iota
	// EncodingRotXor rotates the signature left by five bits and XORs the
	// PC in, making the encoding order sensitive — an ablation point for
	// the paper's choice of addition.
	EncodingRotXor
)

// String returns the encoding name.
func (e Encoding) String() string {
	switch e {
	case EncodingSum:
		return "sum"
	case EncodingRotXor:
		return "rotxor"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

// extend folds one more PC into a signature.
func (e Encoding) extend(sig Signature, pc trace.PC) Signature {
	switch e {
	case EncodingRotXor:
		return (sig<<5 | sig>>27) ^ Signature(pc)
	default:
		return sig + Signature(pc)
	}
}

// Variant names a PCAP configuration from the paper.
type Variant uint8

// PCAP variants (Figure 9's A–D).
const (
	// VariantBase is plain path-signature PCAP.
	VariantBase Variant = iota
	// VariantH adds the idle-period history bit-vector (PCAPh).
	VariantH
	// VariantF adds the file descriptor to the table key (PCAPf).
	VariantF
	// VariantFH combines history and file descriptor (PCAPfh).
	VariantFH
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantBase:
		return "PCAP"
	case VariantH:
		return "PCAPh"
	case VariantF:
		return "PCAPf"
	case VariantFH:
		return "PCAPfh"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// UsesHistory reports whether the variant keys on the idle-history vector.
func (v Variant) UsesHistory() bool { return v == VariantH || v == VariantFH }

// UsesFD reports whether the variant keys on the file descriptor.
func (v Variant) UsesFD() bool { return v == VariantF || v == VariantFH }

// Config parameterizes a PCAP predictor.
type Config struct {
	// Variant selects base PCAP or one of the optimized variants.
	Variant Variant
	// WaitWindow is the sliding wait-window: primary predictions shut the
	// disk down this long after the triggering access, and an access
	// inside the window cancels the shutdown. The paper uses 1 s.
	WaitWindow trace.Time
	// BackupTimeout is the backup timeout predictor's timer, used when
	// the current signature is untrained. The paper uses 10 s.
	BackupTimeout trace.Time
	// Breakeven is the disk's breakeven time; idle periods at least this
	// long are the training targets.
	Breakeven trace.Time
	// HistoryLen is the idle-history bit-vector length for the h/fh
	// variants. The paper uses 6. Maximum 16.
	HistoryLen int
	// TableBound, if positive, caps the prediction table at that many
	// entries with LRU replacement. Zero means unbounded.
	TableBound int
	// Encoding selects the path-to-signature fold; the zero value is the
	// paper's arithmetic sum.
	Encoding Encoding
	// UnlearnMisses, when set, removes a table entry after it causes a
	// misprediction (the entry matched, the disk was shut down, and the
	// idle period turned out shorter than breakeven). The paper keeps
	// entries forever and relies on LRU replacement to age out stale
	// behaviour; this option trades coverage on genuinely bimodal paths
	// for fewer repeat misses.
	UnlearnMisses bool
	// Observer, if non-nil, receives every lookup and training event —
	// instrumentation for tests and debugging only.
	Observer func(ev ObserveEvent)
}

// ObserveEvent reports one PCAP predictor event to a Config.Observer.
type ObserveEvent struct {
	// Pid is the observed process.
	Pid trace.PID
	// Time and PC identify the triggering access.
	Time trace.Time
	PC   trace.PC
	// Key is the probed (on lookups) or trained (on training) table key.
	Key Key
	// Trained marks a training insert; otherwise the event is a lookup
	// whose result is Matched.
	Trained bool
	Matched bool
}

// DefaultConfig returns the paper's configuration for the given variant:
// 1 s wait-window, 10 s backup timeout, 5.43 s breakeven, history length 6.
func DefaultConfig(v Variant) Config {
	return Config{
		Variant:       v,
		WaitWindow:    trace.Second,
		BackupTimeout: 10 * trace.Second,
		Breakeven:     trace.FromSeconds(5.43),
		HistoryLen:    6,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.WaitWindow <= 0:
		return fmt.Errorf("core: wait window must be positive, got %v", c.WaitWindow)
	case c.BackupTimeout <= 0:
		return fmt.Errorf("core: backup timeout must be positive, got %v", c.BackupTimeout)
	case c.Breakeven <= 0:
		return fmt.Errorf("core: breakeven must be positive, got %v", c.Breakeven)
	case c.WaitWindow >= c.Breakeven:
		return fmt.Errorf("core: wait window %v must be below breakeven %v", c.WaitWindow, c.Breakeven)
	case c.Variant.UsesHistory() && (c.HistoryLen < 1 || c.HistoryLen > 16):
		return fmt.Errorf("core: history length must be in [1,16], got %d", c.HistoryLen)
	case c.TableBound < 0:
		return fmt.Errorf("core: table bound must be non-negative, got %d", c.TableBound)
	}
	return nil
}

// PCAP is the application-wide predictor: it owns the prediction table
// shared by all of the application's processes and implements
// predictor.Factory. Like its Table, it and its process instances have
// one owner goroutine and are not safe for concurrent use.
type PCAP struct {
	cfg   Config
	table *Table
}

var _ predictor.Factory = (*PCAP)(nil)

// New returns a PCAP factory with an empty prediction table.
func New(cfg Config) (*PCAP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PCAP{cfg: cfg, table: NewTable(cfg.TableBound)}, nil
}

// MustNew is New, panicking on configuration errors. Intended for
// tests and examples with literal configurations.
func MustNew(cfg Config) *PCAP {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements predictor.Factory.
func (p *PCAP) Name() string { return p.cfg.Variant.String() }

// Config returns the configuration.
func (p *PCAP) Config() Config { return p.cfg }

// Table returns the application's prediction table.
func (p *PCAP) Table() *Table { return p.table }

// NewProcess implements predictor.Factory. The returned process predictor
// holds the per-process context the paper keeps in the kernel process
// status structure (current signature, idle-history register) and shares
// the application's prediction table.
func (p *PCAP) NewProcess(pid trace.PID) predictor.Process {
	return &processPredictor{owner: p, pid: pid}
}

// processPredictor is PCAP's per-process state.
type processPredictor struct {
	owner *PCAP
	pid   trace.PID

	// started reports whether the process has performed an access.
	started bool
	// last is the time of the most recent access.
	last trace.Time
	// sig is the current path signature: the arithmetic sum of the PCs of
	// the I/Os since the last long idle period.
	sig Signature
	// hist is the idle-period history register; bit 0 is the most recent
	// period (1 = long).
	hist uint16
	// lastKey is the exact table key probed at the previous access; it is
	// what gets trained if the following idle period turns out long.
	lastKey Key
	// lastMatched records whether lastKey matched (for UnlearnMisses).
	lastMatched bool
}

// OnAccess implements predictor.Process.
func (pp *processPredictor) OnAccess(a predictor.Access) predictor.Decision {
	cfg := &pp.owner.cfg
	if !pp.started {
		pp.started = true
		pp.sig = Signature(a.PC)
	} else {
		gap := a.Time - pp.last
		if cfg.UnlearnMisses && pp.lastMatched && gap >= cfg.WaitWindow && gap < cfg.Breakeven {
			// The previous prediction shut the disk down into a short
			// period: retract the offending entry.
			pp.owner.table.Forget(pp.lastKey)
		}
		if gap >= cfg.Breakeven {
			// The previous access led into a long idle period: train the
			// key probed there, then start a fresh path at this access.
			pp.owner.table.Train(pp.lastKey)
			if cfg.Observer != nil {
				cfg.Observer(ObserveEvent{Pid: pp.pid, Time: a.Time, PC: a.PC, Key: pp.lastKey, Trained: true})
			}
			pp.pushHistory(1)
			pp.sig = Signature(a.PC)
		} else {
			if gap >= cfg.WaitWindow {
				// A short-but-unfiltered idle period: history bit 0.
				// Periods under the wait-window are filtered at run time
				// and never enter the history.
				pp.pushHistory(0)
			}
			pp.sig = cfg.Encoding.extend(pp.sig, a.PC)
		}
	}
	pp.last = a.Time

	key := Key{Sig: pp.sig}
	if cfg.Variant.UsesHistory() {
		key.Hist = pp.hist & histMask(cfg.HistoryLen)
		key.HasHist = true
	}
	if cfg.Variant.UsesFD() {
		key.FD = a.FD
		key.HasFD = true
	}
	pp.lastKey = key

	matched := pp.owner.table.Lookup(key)
	pp.lastMatched = matched
	if cfg.Observer != nil {
		cfg.Observer(ObserveEvent{Pid: pp.pid, Time: a.Time, PC: a.PC, Key: key, Matched: matched})
	}
	if matched {
		return predictor.Decision{
			Shutdown: true,
			Delay:    cfg.WaitWindow,
			Source:   predictor.SourcePrimary,
		}
	}
	// Untrained signature: the backup timeout predictor covers the idle
	// period. This is the only time the timeout predictor overrides the
	// implied "no idle" prediction.
	return predictor.Decision{
		Shutdown: true,
		Delay:    cfg.BackupTimeout,
		Source:   predictor.SourceBackup,
	}
}

func (pp *processPredictor) pushHistory(bit uint16) {
	pp.hist = pp.hist<<1 | bit
}

func histMask(n int) uint16 {
	if n >= 16 {
		return ^uint16(0)
	}
	return uint16(1)<<uint(n) - 1
}
