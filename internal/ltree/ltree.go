// Package ltree implements the adaptive Learning Tree (LT) shutdown
// predictor of Chung, Benini and De Micheli ("Dynamic power management
// using adaptive learning tree", ICCAD 1999), the strongest prior dynamic
// predictor the paper compares PCAP against.
//
// LT observes the sequence of idle periods, discretized here into two
// classes (shorter vs longer than the disk breakeven time, since the study
// only predicts shutdowns), and grows a binary tree over recent
// idle-class histories. Each node carries a saturating confidence counter
// for "the next idle period is long". A prediction walks the tree along
// the current history and uses the deepest reliably trained node: a
// confident node schedules an immediate shutdown guarded by the same
// sliding wait-window PCAP uses; otherwise the backup timeout predictor
// remains in force — dynamic predictors accelerate the timer, they never
// suppress it, exactly as in PCAP.
package ltree

import (
	"fmt"

	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// Config parameterizes a Learning Tree predictor.
type Config struct {
	// HistoryLen is the maximum tree depth: how many recent idle-period
	// classes a prediction may condition on. The paper uses 8.
	HistoryLen int
	// WaitWindow is the sliding wait-window for primary predictions (1 s
	// in the paper).
	WaitWindow trace.Time
	// BackupTimeout is the backup timeout predictor's timer (10 s).
	BackupTimeout trace.Time
	// Breakeven is the idle-class discretization threshold.
	Breakeven trace.Time
	// ConfidenceMax is the saturating counter ceiling; counters at or
	// above ConfidenceThreshold predict a long period. The classic 2-bit
	// scheme is max 3, threshold 2 — the defaults.
	ConfidenceMax int
	// ConfidenceThreshold is the minimum counter value that predicts a
	// long idle period.
	ConfidenceThreshold int
}

// DefaultConfig returns the paper's LT configuration: history length 8,
// 1 s wait-window, 10 s backup timeout, 5.43 s breakeven, 2-bit counters.
func DefaultConfig() Config {
	return Config{
		HistoryLen:          8,
		WaitWindow:          trace.Second,
		BackupTimeout:       10 * trace.Second,
		Breakeven:           trace.FromSeconds(5.43),
		ConfidenceMax:       3,
		ConfidenceThreshold: 2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.HistoryLen < 1 || c.HistoryLen > 32:
		return fmt.Errorf("ltree: history length must be in [1,32], got %d", c.HistoryLen)
	case c.WaitWindow <= 0:
		return fmt.Errorf("ltree: wait window must be positive, got %v", c.WaitWindow)
	case c.BackupTimeout <= 0:
		return fmt.Errorf("ltree: backup timeout must be positive, got %v", c.BackupTimeout)
	case c.Breakeven <= 0:
		return fmt.Errorf("ltree: breakeven must be positive, got %v", c.Breakeven)
	case c.WaitWindow >= c.Breakeven:
		return fmt.Errorf("ltree: wait window %v must be below breakeven %v", c.WaitWindow, c.Breakeven)
	case c.ConfidenceMax < 1:
		return fmt.Errorf("ltree: confidence max must be positive, got %d", c.ConfidenceMax)
	case c.ConfidenceThreshold < 1 || c.ConfidenceThreshold > c.ConfidenceMax:
		return fmt.Errorf("ltree: confidence threshold %d out of range [1,%d]", c.ConfidenceThreshold, c.ConfidenceMax)
	}
	return nil
}

// node is one learning-tree node. children[0] extends the history with a
// short period, children[1] with a long one (most recent class first).
type node struct {
	children [2]*node
	counter  int
	visits   int
}

// Tree is the application-wide learning tree shared by all of the
// application's processes. A Tree has one owner goroutine: it is not safe
// for concurrent use, and the simulator steps every process of a run, and
// so every call on the run's tree, on one goroutine.
type Tree struct {
	root  *node
	nodes int
}

// NewTree returns an empty tree.
func NewTree() *Tree { return &Tree{root: &node{}} }

// Nodes returns the number of interior/leaf nodes excluding the root — the
// tree's storage footprint in entries.
func (t *Tree) Nodes() int {
	return t.nodes
}

// minReliableVisits is the training count at which a node's counter is
// preferred over shallower ancestors. A node seen once cannot hold a
// confident counter (2-bit counters need two agreeing outcomes), so the
// prediction backs off to the deepest reliably trained ancestor —
// Chung et al.'s "best matching path".
const minReliableVisits = 2

// predict walks the tree along history (bit 0 = most recent class) and
// returns the confidence counter of the deepest reliably trained node,
// backing off to once-visited nodes only when no reliable node exists.
// ok is false when the path is entirely untrained.
func (t *Tree) predict(history uint32, depth int) (counter int, ok bool) {
	n := t.root
	weak, haveWeak := 0, false
	for d := 0; d < depth; d++ {
		bit := history >> uint(d) & 1
		next := n.children[bit]
		if next == nil {
			break
		}
		n = next
		if n.visits >= minReliableVisits {
			counter, ok = n.counter, true
		} else if n.visits > 0 {
			weak, haveWeak = n.counter, true
		}
	}
	if !ok && haveWeak {
		return weak, true
	}
	return counter, ok
}

// train updates every node along history with the outcome of the period
// that just completed (long reports the observed class), growing the path
// to the given depth.
func (t *Tree) train(history uint32, depth int, long bool, cfg *Config) {
	n := t.root
	for d := 0; d < depth; d++ {
		bit := history >> uint(d) & 1
		if n.children[bit] == nil {
			n.children[bit] = &node{}
			t.nodes++
		}
		n = n.children[bit]
		n.visits++
		if long {
			if n.counter < cfg.ConfidenceMax {
				n.counter++
			}
		} else if n.counter > 0 {
			n.counter--
		}
	}
}

// LT is the Learning Tree predictor factory for one application,
// implementing predictor.Factory.
type LT struct {
	cfg  Config
	tree *Tree
}

var _ predictor.Factory = (*LT)(nil)

// New returns an LT factory with an empty tree.
func New(cfg Config) (*LT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &LT{cfg: cfg, tree: NewTree()}, nil
}

// MustNew is New, panicking on configuration errors.
func MustNew(cfg Config) *LT {
	l, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// Name implements predictor.Factory.
func (l *LT) Name() string { return "LT" }

// Config returns the configuration.
func (l *LT) Config() Config { return l.cfg }

// Tree returns the shared learning tree.
func (l *LT) Tree() *Tree { return l.tree }

// NewProcess implements predictor.Factory.
func (l *LT) NewProcess(trace.PID) predictor.Process {
	return &processPredictor{owner: l}
}

type processPredictor struct {
	owner   *LT
	started bool
	last    trace.Time
	// history holds recent idle classes, bit 0 most recent (1 = long);
	// observed counts how many classes have actually been recorded, so an
	// empty register is not mistaken for a run of short periods.
	history  uint32
	observed int
}

// OnAccess implements predictor.Process.
func (pp *processPredictor) OnAccess(a predictor.Access) predictor.Decision {
	cfg := &pp.owner.cfg
	if pp.started {
		gap := a.Time - pp.last
		if gap >= cfg.WaitWindow {
			// The completed idle period enters the history (sub-window
			// periods are filtered at run time, as in PCAP).
			long := gap >= cfg.Breakeven
			pp.owner.tree.train(pp.history, pp.depth(), long, cfg)
			bit := uint32(0)
			if long {
				bit = 1
			}
			pp.history = pp.history<<1 | bit
			pp.observed++
		}
	}
	pp.started = true
	pp.last = a.Time

	counter, trained := pp.owner.tree.predict(pp.history, pp.depth())
	if trained && counter >= cfg.ConfidenceThreshold {
		// A confident long prediction accelerates the shutdown to the
		// wait-window.
		return predictor.Decision{
			Shutdown: true,
			Delay:    cfg.WaitWindow,
			Source:   predictor.SourcePrimary,
		}
	}
	// Otherwise the backup timeout predictor remains the floor: the
	// dynamic predictor only ever accelerates shutdowns, it never
	// suppresses the timer (same contract as PCAP's backup).
	return predictor.Decision{
		Shutdown: true,
		Delay:    cfg.BackupTimeout,
		Source:   predictor.SourceBackup,
	}
}

// StateSize reports the number of learned tree nodes, satisfying the
// simulator's SizedFactory interface.
func (l *LT) StateSize() int { return l.tree.Nodes() }

// depth bounds tree walks by how much history the process has actually
// accumulated.
func (pp *processPredictor) depth() int {
	if pp.observed < pp.owner.cfg.HistoryLen {
		return pp.observed
	}
	return pp.owner.cfg.HistoryLen
}
