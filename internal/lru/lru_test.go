package lru

import (
	"container/list"
	"math/rand"
	"reflect"
	"testing"
)

// hash spreads small test keys; clustering them (mod 8) builds long probe
// runs, so deletions exercise the backward shift.
func hash(k int) uint64 { return uint64(k%8) * 0x9E3779B97F4A7C15 >> 20 }

// keys walks the list newest first.
func (l *List[K]) keys() []K {
	var out []K
	for s := l.Newest(); s != 0; s = l.Older(s) {
		out = append(out, l.Key(s))
	}
	return out
}

// TestMatchesContainerList drives a List and a container/list + map model
// through the same random operations and compares membership, order and
// length after each one. Capacity 0 makes the arena and index grow from
// their minimum; capacity 64 keeps the list inside its preallocation.
func TestMatchesContainerList(t *testing.T) {
	for _, capacity := range []int{0, 64} {
		r := rand.New(rand.NewSource(int64(capacity) + 1))
		l := New[int](capacity)
		ref := list.New()
		elems := make(map[int]*list.Element)
		for step := 0; step < 20000; step++ {
			k := r.Intn(100)
			s := l.Find(k, hash(k))
			el, ok := elems[k]
			if (s != 0) != ok {
				t.Fatalf("cap %d step %d: Find(%d) = %d, model has it: %v", capacity, step, k, s, ok)
			}
			switch op := r.Intn(10); {
			case op == 0 && l.Len() > 0:
				old := l.Oldest()
				if l.Key(old) != ref.Back().Value.(int) {
					t.Fatalf("cap %d step %d: Oldest %d, model %d", capacity, step, l.Key(old), ref.Back().Value)
				}
				delete(elems, ref.Remove(ref.Back()).(int))
				l.Remove(old)
			case op == 1 && ok:
				l.Remove(s)
				ref.Remove(el)
				delete(elems, k)
			case op == 2 && step%500 == 0:
				l.Reset()
				ref.Init()
				clear(elems)
			case ok:
				l.Touch(s)
				ref.MoveToFront(el)
			case !ok:
				if got := l.Key(l.Insert(k, hash(k))); got != k {
					t.Fatalf("cap %d step %d: inserted %d, slot holds %d", capacity, step, k, got)
				}
				elems[k] = ref.PushFront(k)
			}
			var want []int
			for e := ref.Front(); e != nil; e = e.Next() {
				want = append(want, e.Value.(int))
			}
			if got := l.keys(); l.Len() != ref.Len() || !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d step %d: len %d order %v, model len %d order %v", capacity, step, l.Len(), got, ref.Len(), want)
			}
		}
	}
}

// TestSteadyStateAllocs pins zero allocations for a list that stays
// within the capacity it was created with, through evictions and Reset.
func TestSteadyStateAllocs(t *testing.T) {
	const capacity = 64
	l := New[int](capacity)
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 3*capacity; i++ {
			k++
			if s := l.Find(k%150, hash(k%150)); s != 0 {
				l.Touch(s)
				continue
			}
			if l.Len() == capacity {
				l.Remove(l.Oldest())
			}
			l.Insert(k%150, hash(k%150))
		}
		if k%7 == 0 {
			l.Reset()
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per run, want 0", allocs)
	}
}
