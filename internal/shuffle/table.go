package shuffle

import "math/bits"

// table is the lookup table that simulates the paper's uninitialized array
// for both structures of this package: a map from int64 keys to int64
// values in which an absent key k reads as k. It is one flat open-addressed
// array (power-of-two capacity, linear probing, multiplicative hash on the
// top bits) with no per-entry allocation, and it never pauses to rehash:
// when the array fills up — or empties out — a second array is allocated
// and every later operation moves at most migrateStep slots across, so each
// operation touches O(1) slots in the worst case, not just amortized. (What
// is left of a resize in one operation is the allocator clearing the new
// array, a memclr of 16 bytes a slot.)
//
// Keys are never deleted one by one. A caller that will not look a key up
// again takes it, which leaves a dead slot behind; dead slots keep probe
// runs connected and are dropped, not copied, when the array is rebuilt.
//
// While a migration runs every live key is in exactly one of the two
// arrays: new keys go to cur, keys found in old are updated (or killed) in
// place and move later, and a moved slot is killed in old.
type table struct {
	cur, old           []slot // old is non-nil only while migrating
	curShift, oldShift uint8  // 64 - log2(len): the hash keeps the top bits
	used               int    // occupied slots of cur, dead ones included
	live               int    // live keys, both arrays
	scan               int    // next slot of old to move
	moved              uint64 // slots of old visited, for the bounded-work test
}

// slot is one key/value pair. k holds key+1 so that the zeroed array make
// returns is empty; keys are non-negative, which leaves -1 free to mark a
// dead slot.
type slot struct{ k, v int64 }

const (
	deadKey = -1
	// minSlots is the capacity of a fresh table and the floor of a shrink.
	minSlots = 16
	// migrateStep is how many slots of old one operation moves. A rebuild
	// sizes cur to at least twice the live keys and at least half of old,
	// and cur gains at most one new key per step, so when the len(old)/8
	// steps of a migration are done cur is at most 1/2 + 1/4 full: below
	// maxLoad, which is why a rebuild never has to wait for one in flight.
	migrateStep = 8
)

func newTable() table {
	return table{cur: make([]slot, minSlots), curShift: 64 - 4}
}

// overloaded reports whether used slots exceed 7/8 of n, the load at which
// cur is rebuilt. Linear probing always finds an empty slot below it.
func overloaded(used, n int) bool { return used > n-n/8 }

func home(k1 int64, shift uint8) int {
	return int(uint64(k1) * 0x9E3779B97F4A7C15 >> shift)
}

// lookup returns the live slot of s holding k1, or nil.
func lookup(s []slot, shift uint8, k1 int64) *slot {
	mask := len(s) - 1
	for i := home(k1, shift); ; i = (i + 1) & mask {
		switch e := &s[i]; e.k {
		case k1:
			return e
		case 0:
			return nil
		}
	}
}

// find returns the slot holding key k in either array, or nil.
func (t *table) find(k int64) *slot {
	if e := lookup(t.cur, t.curShift, k+1); e != nil || t.old == nil {
		return e
	}
	return lookup(t.old, t.oldShift, k+1)
}

// get returns the value of key k.
func (t *table) get(k int64) int64 {
	if e := t.find(k); e != nil {
		return e.v
	}
	return k
}

// take is get for a key the caller will never look up again.
func (t *table) take(k int64) int64 {
	t.migrate()
	e := t.find(k)
	if e == nil {
		return k
	}
	e.k = deadKey
	t.live--
	if t.old == nil && len(t.cur) > minSlots && t.live < len(t.cur)/4 {
		t.rebuild()
	}
	return e.v
}

// swap sets key k to v and returns the value it had.
func (t *table) swap(k, v int64) int64 {
	t.migrate()
	if e := t.find(k); e != nil {
		prev := e.v
		e.v = v
		return prev
	}
	if overloaded(t.used+1, len(t.cur)) {
		for t.old != nil {
			// Unreachable while migrateStep's bound holds; if it ever does
			// not, finishing here costs time, never a lost key.
			t.migrate()
		}
		t.rebuild()
	}
	t.live++
	t.insert(k+1, v)
	return k
}

// insert stores a key known to be absent in the first free slot of its
// probe run in cur: an empty one, or a dead one, which it revives.
func (t *table) insert(k1, v int64) {
	mask := len(t.cur) - 1
	i := home(k1, t.curShift)
	for t.cur[i].k > 0 {
		i = (i + 1) & mask
	}
	if t.cur[i].k == 0 {
		t.used++
	}
	t.cur[i] = slot{k1, v}
}

// rebuild starts migrating into a fresh array sized for the live keys:
// twice their number rounded up to a power of two, but never less than
// half the current capacity (see migrateStep).
func (t *table) rebuild() {
	n := max(minSlots, len(t.cur)/2)
	for n < 2*t.live {
		n <<= 1
	}
	t.old, t.oldShift = t.cur, t.curShift
	t.cur, t.curShift = make([]slot, n), uint8(64-bits.TrailingZeros(uint(n)))
	t.used, t.scan = 0, 0
}

// migrate moves the next migrateStep slots of old, if a migration is
// running, and drops old once it has been scanned to its end.
func (t *table) migrate() {
	if t.old == nil {
		return
	}
	end := min(t.scan+migrateStep, len(t.old))
	t.moved += uint64(end - t.scan)
	for ; t.scan < end; t.scan++ {
		if e := &t.old[t.scan]; e.k > 0 {
			t.insert(e.k, e.v)
			e.k = deadKey
		}
	}
	if end == len(t.old) {
		t.old = nil
	}
}
