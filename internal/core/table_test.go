package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pcapsim/internal/trace"
)

func TestTableBasics(t *testing.T) {
	tab := NewTable(0)
	k := Key{Sig: 0x1234}
	if tab.Lookup(k) {
		t.Fatal("empty table matched")
	}
	tab.Train(k)
	if !tab.Lookup(k) {
		t.Fatal("trained key not found")
	}
	if tab.Len() != 1 {
		t.Errorf("len %d", tab.Len())
	}
	tab.Train(k) // idempotent
	if tab.Len() != 1 {
		t.Errorf("len after retrain %d", tab.Len())
	}
	st := tab.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Inserts != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestTableKeyDistinctions(t *testing.T) {
	tab := NewTable(0)
	tab.Train(Key{Sig: 1})
	cases := []Key{
		{Sig: 1, HasHist: true},
		{Sig: 1, HasFD: true},
		{Sig: 1, Hist: 1, HasHist: true},
		{Sig: 1, FD: 1, HasFD: true},
		{Sig: 2},
	}
	for _, k := range cases {
		if tab.Lookup(k) {
			t.Errorf("key %v matched plain sig entry", k)
		}
	}
}

func TestTableLRUBound(t *testing.T) {
	tab := NewTable(2)
	tab.Train(Key{Sig: 1})
	tab.Train(Key{Sig: 2})
	tab.Lookup(Key{Sig: 1}) // refresh 1; 2 is now LRU
	tab.Train(Key{Sig: 3})  // evicts 2
	if tab.Len() != 2 {
		t.Fatalf("len %d", tab.Len())
	}
	if tab.Lookup(Key{Sig: 2}) {
		t.Error("LRU victim still present")
	}
	if !tab.Lookup(Key{Sig: 1}) || !tab.Lookup(Key{Sig: 3}) {
		t.Error("survivors missing")
	}
	if tab.Stats().Evictions != 1 {
		t.Errorf("evictions %d", tab.Stats().Evictions)
	}
}

func TestTableForget(t *testing.T) {
	tab := NewTable(0)
	tab.Train(Key{Sig: 7})
	if !tab.Forget(Key{Sig: 7}) {
		t.Error("forget reported absent")
	}
	if tab.Forget(Key{Sig: 7}) {
		t.Error("double forget reported present")
	}
	if tab.Len() != 0 {
		t.Errorf("len %d", tab.Len())
	}
}

func TestTableKeysSortedDeterministically(t *testing.T) {
	tab := NewTable(0)
	keys := []Key{
		{Sig: 3}, {Sig: 1, FD: 2, HasFD: true}, {Sig: 1, FD: 1, HasFD: true},
		{Sig: 2, Hist: 5, HasHist: true}, {Sig: 2, Hist: 1, HasHist: true},
	}
	for _, k := range keys {
		tab.Train(k)
	}
	got := tab.Keys()
	for i := 1; i < len(got); i++ {
		if got[i].less(got[i-1]) {
			t.Fatalf("keys not sorted: %v", got)
		}
	}
	// Deterministic across calls.
	again := tab.Keys()
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("key order unstable")
		}
	}
}

func TestLoadKeys(t *testing.T) {
	tab := NewTable(0)
	tab.LoadKeys([]Key{{Sig: 1}, {Sig: 2}, {Sig: 1}})
	if tab.Len() != 2 {
		t.Errorf("len %d", tab.Len())
	}
}

func TestStorageBytes(t *testing.T) {
	tab := NewTable(0)
	for i := 0; i < 139; i++ {
		tab.Train(Key{Sig: Signature(i)})
	}
	// The paper: 139 entries consume 556 bytes at 4 bytes per entry.
	if got := tab.StorageBytes(); got != 556 {
		t.Errorf("storage %d bytes, want 556", got)
	}
}

func TestSignatureAddPC(t *testing.T) {
	var s Signature
	s = s.AddPC(0xfffffffe).AddPC(3)
	if s != 1 {
		t.Errorf("wrap-around sum = %d, want 1 (mod 2^32)", s)
	}
}

// TestTableQuickMatchesMapModel checks the table against a plain map+order
// model under random operations, including LRU bounding.
func TestTableQuickMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const bound = 8
		tab := NewTable(bound)
		type entry struct{ key Key }
		var order []entry // front = most recent
		find := func(k Key) int {
			for i, e := range order {
				if e.key == k {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 300; op++ {
			k := Key{Sig: Signature(r.Intn(16)), FD: trace.FD(r.Intn(2)), HasFD: true}
			switch r.Intn(3) {
			case 0: // train
				tab.Train(k)
				if i := find(k); i >= 0 {
					order = append(order[:i], order[i+1:]...)
				}
				order = append([]entry{{k}}, order...)
				if len(order) > bound {
					order = order[:bound]
				}
			case 1: // lookup
				want := find(k) >= 0
				if tab.Lookup(k) != want {
					return false
				}
				if i := find(k); i >= 0 {
					e := order[i]
					order = append(order[:i], order[i+1:]...)
					order = append([]entry{e}, order...)
				}
			case 2: // forget
				want := find(k) >= 0
				if tab.Forget(k) != want {
					return false
				}
				if i := find(k); i >= 0 {
					order = append(order[:i], order[i+1:]...)
				}
			}
			if tab.Len() != len(order) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
