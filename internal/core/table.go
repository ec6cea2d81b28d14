package core

import (
	"fmt"
	"sort"

	"pcapsim/internal/lru"
	"pcapsim/internal/trace"
)

// Signature is the 4-byte encoded path of I/O-triggering program
// counters: the arithmetic sum (mod 2³²) of the PCs in the path. The
// encoding minimizes storage and makes comparison a single word compare,
// at the cost of possible (never observed in the paper) aliasing between
// permutations of the same PCs.
type Signature uint32

// AddPC returns the signature extended by one program counter.
func (s Signature) AddPC(pc trace.PC) Signature { return s + Signature(pc) }

// Key is a prediction-table key: the path signature, optionally augmented
// with the idle-period history vector (PCAPh) and/or the file descriptor
// of the access preceding the idle period (PCAPf).
type Key struct {
	// Sig is the encoded PC path.
	Sig Signature
	// Hist is the idle-history bit-vector, valid when HasHist.
	Hist uint16
	// HasHist marks history-augmented keys (PCAPh, PCAPfh).
	HasHist bool
	// FD is the file descriptor, valid when HasFD.
	FD trace.FD
	// HasFD marks fd-augmented keys (PCAPf, PCAPfh).
	HasFD bool
}

// String renders the key compactly for debugging and persistence.
func (k Key) String() string {
	s := fmt.Sprintf("sig=0x%08x", uint32(k.Sig))
	if k.HasHist {
		s += fmt.Sprintf(" hist=0b%016b", k.Hist)
	}
	if k.HasFD {
		s += fmt.Sprintf(" fd=%d", int32(k.FD))
	}
	return s
}

// less orders keys deterministically (for stable snapshots). The order is
// total: the augmentation flags participate, so tables mixing key shapes
// (which no single PCAP variant produces, but tests do) still sort
// reproducibly.
func (k Key) less(o Key) bool {
	if k.Sig != o.Sig {
		return k.Sig < o.Sig
	}
	if k.HasHist != o.HasHist {
		return !k.HasHist
	}
	if k.Hist != o.Hist {
		return k.Hist < o.Hist
	}
	if k.HasFD != o.HasFD {
		return !k.HasFD
	}
	return k.FD < o.FD
}

// hash mixes every key field into a table-probe position (splitmix64-style
// finalizer). Only determinism matters for correctness; quality just keeps
// probe chains short.
func (k Key) hash() uint64 {
	x := uint64(k.Sig) | uint64(k.Hist)<<32
	if k.HasHist {
		x ^= 1 << 62
	}
	if k.HasFD {
		x ^= 1 << 63
	}
	x ^= uint64(uint32(k.FD)) * 0xBF58476D1CE4E5B9
	x *= 0x94D049BB133111EB
	return x ^ x>>29
}

// Stats counts prediction-table activity.
type Stats struct {
	// Lookups is the number of probes.
	Lookups int64
	// Hits is the number of probes that matched.
	Hits int64
	// Inserts is the number of new signatures learned.
	Inserts int64
	// Evictions is the number of entries displaced by the LRU bound.
	Evictions int64
}

// Table is a prediction table: a set of trained keys with optional LRU
// bounding. The paper shares one table among all processes of an
// application. A Table has one owner goroutine: it is not safe for
// concurrent use, and the simulator steps every process of a run, and so
// every call on the run's table, on one goroutine.
//
// Storage is an lru.List, so steady-state Lookup/Train/Forget perform no
// allocations (an unbounded table grows its arena and index geometrically
// as it learns). LRU semantics — refresh on Lookup and Train, evict the
// least recently used entry past the bound — are identical to the
// reference list+map implementation retained in
// table_differential_test.go.
type Table struct {
	bound int
	keys  *lru.List[Key]
	stats Stats
}

// NewTable returns an empty table. A positive bound caps the entry count
// with least-recently-used replacement; zero means unbounded.
func NewTable(bound int) *Table {
	if bound < 0 {
		bound = 0
	}
	slots := 64
	if bound > 0 {
		slots = bound
	}
	return &Table{bound: bound, keys: lru.New[Key](slots)}
}

// Len returns the number of trained entries (the paper's Table 3 metric).
func (t *Table) Len() int {
	return t.keys.Len()
}

// Stats returns a copy of the activity counters.
func (t *Table) Stats() Stats {
	return t.stats
}

// Lookup probes the table and reports whether key is trained, refreshing
// its LRU position on a match.
func (t *Table) Lookup(key Key) bool {
	t.stats.Lookups++
	s := t.keys.Find(key, key.hash())
	if s == 0 {
		return false
	}
	t.stats.Hits++
	t.keys.Touch(s)
	return true
}

// Train records key in the table (idempotently), evicting the least
// recently used entry if a bound is configured and exceeded.
func (t *Table) Train(key Key) {
	h := key.hash()
	if s := t.keys.Find(key, h); s != 0 {
		t.keys.Touch(s)
		return
	}
	// Evict-before-insert is observably identical to the reference
	// insert-then-evict: with bound ≥ 1 the victim is always the
	// pre-insert LRU entry, never the newcomer.
	if t.bound > 0 && t.keys.Len() == t.bound {
		t.keys.Remove(t.keys.Oldest())
		t.stats.Evictions++
	}
	t.keys.Insert(key, h)
	t.stats.Inserts++
}

// Forget removes key from the table, reporting whether it was present.
// The base paper never unlearns, but changed application behaviour can be
// aged out this way (or by the LRU bound).
func (t *Table) Forget(key Key) bool {
	s := t.keys.Find(key, key.hash())
	if s == 0 {
		return false
	}
	t.keys.Remove(s)
	return true
}

// Keys returns the trained keys in deterministic (sorted) order.
func (t *Table) Keys() []Key {
	keys := make([]Key, 0, t.keys.Len())
	for s := t.keys.Newest(); s != 0; s = t.keys.Older(s) {
		keys = append(keys, t.keys.Key(s))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

// LoadKeys trains all the given keys, preserving their order as
// most-recent-last. Used when restoring a persisted table.
func (t *Table) LoadKeys(keys []Key) {
	for _, k := range keys {
		t.Train(k)
	}
}

// StorageBytes returns the persisted size of the table under the paper's
// encoding: each entry packs into one 4-byte word (the signature; history
// and fd variants fold their context into the stored word the same way
// the signature itself is an additive fold).
func (t *Table) StorageBytes() int { return 4 * t.Len() }

// StateSize reports the number of learned entries; it satisfies the
// simulator's SizedFactory on *PCAP via the method below.
func (p *PCAP) StateSize() int { return p.table.Len() }
