package core

// Differential tests: the arena-backed intrusive-LRU prediction table
// against a retained copy of the original container/list + map
// implementation. Identical operation sequences must produce identical
// lookup results, counters, eviction victims, and key sets.

import (
	"container/list"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pcapsim/internal/trace"
)

// refTable is the original implementation, kept as the oracle.
type refTable struct {
	bound   int
	entries map[Key]*list.Element
	lru     *list.List
	stats   Stats
}

func newRefTable(bound int) *refTable {
	if bound < 0 {
		bound = 0
	}
	return &refTable{
		bound:   bound,
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
	}
}

func (t *refTable) Len() int     { return len(t.entries) }
func (t *refTable) Stats() Stats { return t.stats }

func (t *refTable) Lookup(key Key) bool {
	t.stats.Lookups++
	el, ok := t.entries[key]
	if ok {
		t.stats.Hits++
		t.lru.MoveToFront(el)
	}
	return ok
}

func (t *refTable) Train(key Key) {
	if el, ok := t.entries[key]; ok {
		t.lru.MoveToFront(el)
		return
	}
	t.entries[key] = t.lru.PushFront(key)
	t.stats.Inserts++
	if t.bound > 0 && len(t.entries) > t.bound {
		oldest := t.lru.Back()
		t.lru.Remove(oldest)
		delete(t.entries, oldest.Value.(Key))
		t.stats.Evictions++
	}
}

func (t *refTable) Forget(key Key) bool {
	el, ok := t.entries[key]
	if !ok {
		return false
	}
	t.lru.Remove(el)
	delete(t.entries, key)
	return true
}

func (t *refTable) Keys() []Key {
	keys := make([]Key, 0, len(t.entries))
	for k := range t.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

// lruKeys lists the reference table's keys MRU-first.
func (t *refTable) lruKeys() []Key {
	var keys []Key
	for el := t.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(Key))
	}
	return keys
}

// lruKeys lists the intrusive table's keys MRU-first.
func (t *Table) lruKeys() []Key {
	var keys []Key
	for s := t.keys.Newest(); s != 0; s = t.keys.Older(s) {
		keys = append(keys, t.keys.Key(s))
	}
	return keys
}

// randKey draws from a small key space (forcing hits, re-trains, and
// evictions) across all augmentation shapes.
func randKey(r *rand.Rand) Key {
	k := Key{Sig: Signature(r.Intn(40))}
	switch r.Intn(4) {
	case 1:
		k.HasHist, k.Hist = true, uint16(r.Intn(8))
	case 2:
		k.HasFD, k.FD = true, trace.FD(r.Intn(6))
	case 3:
		k.HasHist, k.Hist = true, uint16(r.Intn(8))
		k.HasFD, k.FD = true, trace.FD(r.Intn(6))
	}
	return k
}

// TestTableDifferentialRandomized drives both tables through randomized
// Train/Lookup/Forget sequences at several LRU bounds (including the
// degenerate bound of one and the unbounded table) and demands identical
// observable state throughout.
func TestTableDifferentialRandomized(t *testing.T) {
	for _, bound := range []int{0, 1, 2, 7, 16} {
		for seed := int64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("bound=%d/seed=%d", bound, seed), func(t *testing.T) {
				tab := NewTable(bound)
				ref := newRefTable(bound)
				r := rand.New(rand.NewSource(seed))
				for step := 0; step < 4000; step++ {
					key := randKey(r)
					switch r.Intn(10) {
					case 0:
						if got, want := tab.Forget(key), ref.Forget(key); got != want {
							t.Fatalf("step %d: Forget(%v) = %v, reference %v", step, key, got, want)
						}
					case 1, 2, 3, 4:
						tab.Train(key)
						ref.Train(key)
					default:
						if got, want := tab.Lookup(key), ref.Lookup(key); got != want {
							t.Fatalf("step %d: Lookup(%v) = %v, reference %v", step, key, got, want)
						}
					}
					if tab.Len() != ref.Len() {
						t.Fatalf("step %d: Len %d vs %d", step, tab.Len(), ref.Len())
					}
					if step%97 == 0 {
						if g, w := tab.lruKeys(), ref.lruKeys(); !reflect.DeepEqual(g, w) {
							t.Fatalf("step %d: LRU order diverges\n got %v\nwant %v", step, g, w)
						}
					}
				}
				if tab.Stats() != ref.Stats() {
					t.Fatalf("stats diverge: %+v vs %+v", tab.Stats(), ref.Stats())
				}
				if g, w := tab.Keys(), ref.Keys(); !reflect.DeepEqual(g, w) {
					t.Fatalf("key sets diverge\n got %v\nwant %v", g, w)
				}
				if g, w := tab.lruKeys(), ref.lruKeys(); !reflect.DeepEqual(g, w) {
					t.Fatalf("final LRU order diverges\n got %v\nwant %v", g, w)
				}
			})
		}
	}
}

// TestTableBoundOneEvictsEveryInsert checks the degenerate bound: each new
// key displaces the previous one, and re-training the resident key evicts
// nothing.
func TestTableBoundOneEvictsEveryInsert(t *testing.T) {
	tab := NewTable(1)
	a, b := Key{Sig: 1}, Key{Sig: 2}
	tab.Train(a)
	tab.Train(a) // idempotent re-train: no eviction
	if st := tab.Stats(); st.Inserts != 1 || st.Evictions != 0 {
		t.Fatalf("after re-train: %+v", st)
	}
	tab.Train(b)
	if tab.Lookup(a) {
		t.Error("evicted key still trained")
	}
	if !tab.Lookup(b) {
		t.Error("resident key lost")
	}
	if st := tab.Stats(); st.Evictions != 1 || tab.Len() != 1 {
		t.Fatalf("after displacement: %+v len=%d", st, tab.Len())
	}
}

// TestTableArenaRecycling forgets and retrains many keys so arena slots
// cycle through the free list; the observable key set must stay exact.
func TestTableArenaRecycling(t *testing.T) {
	tab := NewTable(0)
	ref := newRefTable(0)
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 50; round++ {
		// Train a batch...
		for i := 0; i < 20; i++ {
			k := Key{Sig: Signature(r.Intn(100))}
			tab.Train(k)
			ref.Train(k)
		}
		// ...then forget a random half of the trained set.
		for _, k := range ref.Keys() {
			if r.Intn(2) == 0 {
				tab.Forget(k)
				ref.Forget(k)
			}
		}
		if g, w := tab.Keys(), ref.Keys(); !reflect.DeepEqual(g, w) {
			t.Fatalf("round %d: key sets diverge (%d vs %d keys)", round, len(g), len(w))
		}
	}
}
