// Package lru is the least-recently-used list shared by the simulator's
// three bounded stores: PCAP's prediction table, the file cache and the
// prefetch evaluation's block cache.
//
// A List threads its entries through a node arena with an intrusive
// doubly-linked list and indexes them with an open-addressed hash table
// using backward-shift deletion (no tombstones). Entries are named by
// their arena slot, a small positive integer that stays fixed while the
// entry lives, so callers keep any per-entry payload in their own slices
// indexed by slot. The List holds keys and order only; eviction policy
// belongs to the caller (Oldest, then Remove, then Insert reuses the
// freed slot).
//
// Callers pass each key's hash: probes make no indirect call, and each
// node stores its hash, so deletion and index growth never rehash. After
// New, operations allocate only when the list outgrows the capacity it
// was created with.
package lru

// node is one arena slot. Slot 0 is the list sentinel: its next is the
// newest entry and its prev the oldest. Free slots are chained through
// next.
type node[K comparable] struct {
	key        K
	hash       uint64
	next, prev int32
}

// bucket is one index cell; slot 0 marks an empty bucket.
type bucket[K comparable] struct {
	key  K
	slot int32
}

// List is an LRU-ordered set of keys. It is not safe for concurrent use.
type List[K comparable] struct {
	nodes []node[K]
	free  int32 // head of the free-slot chain (0 = none)
	n     int
	idx   []bucket[K]
	mask  uint64
}

// New returns an empty list with room for capacity entries before any
// allocation.
func New[K comparable](capacity int) *List[K] {
	l := &List[K]{nodes: make([]node[K], 1, capacity+1)}
	l.idx = make([]bucket[K], indexSize(capacity))
	l.mask = uint64(len(l.idx) - 1)
	return l
}

// indexSize is the power-of-two bucket count that holds n entries at no
// more than half load, so a probe always ends at an empty bucket.
func indexSize(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// Len returns the number of entries.
func (l *List[K]) Len() int { return l.n }

// Reset empties the list, keeping its arena and index.
func (l *List[K]) Reset() {
	l.nodes = l.nodes[:1]
	l.nodes[0].next, l.nodes[0].prev = 0, 0
	l.free = 0
	l.n = 0
	clear(l.idx)
}

// Find returns the slot holding key, or 0 if it is absent.
func (l *List[K]) Find(key K, hash uint64) int32 {
	for i := hash & l.mask; ; i = (i + 1) & l.mask {
		b := &l.idx[i]
		if b.slot == 0 || b.key == key {
			return b.slot
		}
	}
}

// Key returns the key held in slot s.
func (l *List[K]) Key(s int32) K { return l.nodes[s].key }

// Newest returns the most recently used slot, or 0 if the list is empty.
func (l *List[K]) Newest() int32 { return l.nodes[0].next }

// Oldest returns the least recently used slot, or 0 if the list is empty.
func (l *List[K]) Oldest() int32 { return l.nodes[0].prev }

// Older returns the slot used just before s, or 0 after the oldest. With
// Newest it walks the list from most to least recently used.
func (l *List[K]) Older(s int32) int32 { return l.nodes[s].next }

// Touch makes slot s the most recently used.
func (l *List[K]) Touch(s int32) {
	if l.nodes[0].next != s {
		l.unlink(s)
		l.pushFront(s)
	}
}

// Insert adds key, which must be absent, as the most recently used entry
// and returns its slot. It reuses the slot freed by the latest Remove.
func (l *List[K]) Insert(key K, hash uint64) int32 {
	if 2*(l.n+1) > len(l.idx) {
		l.growIndex()
	}
	s := l.free
	if s != 0 {
		l.free = l.nodes[s].next
	} else {
		l.nodes = append(l.nodes, node[K]{})
		s = int32(len(l.nodes) - 1)
	}
	l.nodes[s].key, l.nodes[s].hash = key, hash
	l.pushFront(s)
	i := hash & l.mask
	for l.idx[i].slot != 0 {
		i = (i + 1) & l.mask
	}
	l.idx[i] = bucket[K]{key: key, slot: s}
	l.n++
	return s
}

// Remove deletes the entry in slot s and frees the slot.
func (l *List[K]) Remove(s int32) {
	l.unlink(s)
	i := l.nodes[s].hash & l.mask
	for l.idx[i].slot != s {
		i = (i + 1) & l.mask
	}
	// Backward-shift deletion: pull later members of the probe run into
	// the hole, unless that would move one before its home bucket.
	for {
		l.idx[i].slot = 0
		j := i
		for {
			j = (j + 1) & l.mask
			t := l.idx[j].slot
			if t == 0 {
				l.nodes[s].next = l.free
				l.free = s
				l.n--
				return
			}
			h := l.nodes[t].hash & l.mask
			if (j-h)&l.mask >= (j-i)&l.mask {
				l.idx[i] = l.idx[j]
				i = j
				break
			}
		}
	}
}

// growIndex doubles the index, placing each entry by its stored hash.
func (l *List[K]) growIndex() {
	old := l.idx
	l.idx = make([]bucket[K], 2*len(old))
	l.mask = uint64(len(l.idx) - 1)
	for _, b := range old {
		if b.slot != 0 {
			i := l.nodes[b.slot].hash & l.mask
			for l.idx[i].slot != 0 {
				i = (i + 1) & l.mask
			}
			l.idx[i] = b
		}
	}
}

// unlink removes slot s from the recency list.
func (l *List[K]) unlink(s int32) {
	n := &l.nodes[s]
	l.nodes[n.prev].next = n.next
	l.nodes[n.next].prev = n.prev
}

// pushFront makes slot s the newest entry.
func (l *List[K]) pushFront(s int32) {
	first := l.nodes[0].next
	l.nodes[s].prev, l.nodes[s].next = 0, first
	l.nodes[first].prev = s
	l.nodes[0].next = s
}
