package sim

// KeyTable is an open-addressed hash table from uint64 keys to
// non-negative int32 values. It replaces Go maps on the simulator's two
// conflict trackers — the row-lock owner table and the dependency-graph
// key index — where map hashing and per-bucket allocation dominated.
//
// Probing is linear from a Fibonacci-hashed home slot, and the table is
// kept at most half full. Deletion shifts the rest of the probe run back
// into the hole (no tombstones), so a table that churns — a lock taken and
// released thousands of times a batch — never slows down. Reset empties
// the table in place, so one table serves many batches without
// reallocating. The zero value is an empty table ready to use.
type KeyTable struct {
	slots []keySlot
	mask  uint64 // len(slots)-1; len(slots) is a power of two
	shift uint   // 64 - log2(len(slots))
	n     int
}

// keySlot holds one entry; val is the value plus one, so a zero slot is
// empty and Reset can clear the table with one memclr.
type keySlot struct {
	key uint64
	val uint32
}

// minKeySlots is the smallest table; tiny batches still get a few probes
// of slack.
const minKeySlots = 16

// Reset empties the table and sizes it for at least hint keys, keeping
// its storage when that is already large enough.
func (t *KeyTable) Reset(hint int) {
	size := minKeySlots
	for size < 2*hint {
		size <<= 1
	}
	if len(t.slots) < size {
		t.alloc(size)
		return
	}
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
}

func (t *KeyTable) alloc(size int) {
	t.slots = make([]keySlot, size)
	t.mask = uint64(size - 1)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n = 0
}

// home is k's first probe slot: the top bits of a Fibonacci hash, which
// spread the small sequential keys of hot rows as well as uniform ones.
func (t *KeyTable) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.shift
}

// Get returns the value stored for k.
func (t *KeyTable) Get(k uint64) (v int32, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	for i := t.home(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.val == 0 {
			return 0, false
		}
		if s.key == k {
			return int32(s.val - 1), true
		}
	}
}

// GetOrPut returns the value stored for k and true, or stores v for k and
// returns v and false. v must be non-negative.
func (t *KeyTable) GetOrPut(k uint64, v int32) (int32, bool) {
	if v < 0 {
		panic("sim: KeyTable value must be non-negative")
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	for i := t.home(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.val == 0 {
			s.key, s.val = k, uint32(v)+1
			t.n++
			return v, false
		}
		if s.key == k {
			return int32(s.val - 1), true
		}
	}
}

// Delete removes k and reports whether it was present.
func (t *KeyTable) Delete(k uint64) bool {
	if t.n == 0 {
		return false
	}
	i := t.home(k)
	for {
		s := &t.slots[i]
		if s.val == 0 {
			return false
		}
		if s.key == k {
			break
		}
		i = (i + 1) & t.mask
	}
	// Backward shift: walk the rest of the probe run and move each entry
	// whose home lies cyclically at or before the hole into it, so every
	// remaining key stays reachable from its home without a gap.
	for j := (i + 1) & t.mask; t.slots[j].val != 0; j = (j + 1) & t.mask {
		if (j-t.home(t.slots[j].key))&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = keySlot{}
	t.n--
	return true
}

// grow doubles the table and re-inserts every entry.
func (t *KeyTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < minKeySlots {
		size = minKeySlots
	}
	t.alloc(size)
	for _, s := range old {
		if s.val == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].val != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
		t.n++
	}
}
