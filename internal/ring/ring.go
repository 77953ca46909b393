// Package ring is the one in-order circular queue the simulated machine
// is built from: the fetch queue, the RUU and LSQ, and REESE's R-stream
// Queue are all a Ring of their own entry type.
//
// Entries are addressed by sequence number. Push hands out consecutive
// sequences, entries leave from the head in order, and an entry with
// sequence s occupies slot s & mask while resident, so lookups are O(1)
// with no generation counters. The slot array is rounded up to a power
// of two so that indexing is a mask rather than a 64-bit divide (the
// fetch and issue stages index on every cycle); Cap and Full keep the
// configured capacity, so rounding never changes when a queue fills.
//
// Sequence numbers are position-independent: two rings holding the same
// entries at different absolute sequences are the same queue, which is
// what NormSeq and Equal compare for checkpoint splicing and the hang
// fast-forward.
package ring

import (
	"fmt"
	"math/bits"
)

// absent is what NormSeq returns for a sequence reference that is not
// resident: never pushed, already retired, or squashed. Queues that use
// ^uint64(0) as their own "no reference" marker map it here too, since
// that sequence is never resident.
const absent = ^uint64(0)

// Ring is a fixed-capacity FIFO of E addressed by sequence number. The
// zero value is unusable; build one with Make.
type Ring[E any] struct {
	slots []E
	mask  uint64
	size  uint64 // configured capacity, <= len(slots)
	head  uint64 // sequence of the oldest resident entry
	next  uint64 // sequence the next Push receives
}

// Make returns an empty ring holding up to capacity entries (at least
// 1), with its slot array rounded up to a power of two.
func Make[E any](capacity int) Ring[E] {
	capacity = max(capacity, 1)
	n := uint64(1) << bits.Len64(uint64(capacity-1))
	return Ring[E]{slots: make([]E, n), mask: n - 1, size: uint64(capacity)}
}

// Len returns the number of resident entries.
func (r *Ring[E]) Len() int { return int(r.next - r.head) }

// Cap returns the configured capacity.
func (r *Ring[E]) Cap() int { return int(r.size) }

// Full reports whether a Push would exceed the capacity.
func (r *Ring[E]) Full() bool { return r.next-r.head >= r.size }

// Empty reports whether nothing is resident.
func (r *Ring[E]) Empty() bool { return r.next == r.head }

// HeadSeq returns the sequence of the oldest resident entry (the next
// one to be pushed when empty).
func (r *Ring[E]) HeadSeq() uint64 { return r.head }

// NextSeq returns the sequence the next Push receives.
func (r *Ring[E]) NextSeq() uint64 { return r.next }

// Resident reports whether the entry with sequence seq is still queued.
func (r *Ring[E]) Resident(seq uint64) bool { return seq >= r.head && seq < r.next }

// At returns the slot of sequence seq without a residency check, for
// loops that stay inside [HeadSeq, NextSeq).
func (r *Ring[E]) At(seq uint64) *E { return &r.slots[seq&r.mask] }

// Get returns the resident entry with sequence seq, panicking when it is
// not resident.
func (r *Ring[E]) Get(seq uint64) *E {
	if !r.Resident(seq) {
		panic(fmt.Sprintf("ring: Get(%d) not resident [%d,%d)", seq, r.head, r.next))
	}
	return r.At(seq)
}

// Head returns the oldest entry, or nil when empty.
func (r *Ring[E]) Head() *E {
	if r.Empty() {
		return nil
	}
	return r.At(r.head)
}

// Push appends v at the tail under sequence NextSeq and returns its
// slot. The caller must have checked Full.
func (r *Ring[E]) Push(v E) *E {
	e := r.At(r.next)
	*e = v
	r.next++
	return e
}

// RemoveHead pops and returns the oldest entry, panicking when empty.
func (r *Ring[E]) RemoveHead() E {
	if r.Empty() {
		panic("ring: RemoveHead on empty ring")
	}
	e := *r.At(r.head)
	r.head++
	return e
}

// Flush discards every resident entry. Sequences keep counting from
// NextSeq.
func (r *Ring[E]) Flush() { r.head = r.next }

// TruncateTo discards every entry with sequence >= seq (a squashed
// tail); a seq below the head empties the ring.
func (r *Ring[E]) TruncateTo(seq uint64) {
	seq = max(seq, r.head)
	if seq < r.next {
		r.next = seq
	}
}

// Scan calls fn on each resident entry, oldest first, stopping early
// when fn returns false.
func (r *Ring[E]) Scan(fn func(*E) bool) {
	for s := r.head; s < r.next; s++ {
		if !fn(r.At(s)) {
			return
		}
	}
}

// CopyFrom makes r a deep copy of src, reusing r's slot array when it is
// large enough. Entries are copied by value, so E must not hold
// references the copy should not share.
func (r *Ring[E]) CopyFrom(src *Ring[E]) {
	slots := append(r.slots[:0], src.slots...)
	*r = *src
	r.slots = slots
}

// NormSeq maps a sequence reference to a value that compares across
// rings: its distance from this ring's head when resident, one sentinel
// otherwise (a reference that has left the queue, or never entered it,
// has no further effect on what the queue does).
func (r *Ring[E]) NormSeq(seq uint64) uint64 {
	if !r.Resident(seq) {
		return absent
	}
	return seq - r.head
}

// Equal reports whether a and b have the same capacity and length and eq
// holds for each pair of entries, oldest first, each taken from its own
// ring's head.
func Equal[E any](a, b *Ring[E], eq func(x, y *E) bool) bool {
	if a.size != b.size {
		return false
	}
	if a.Len() != b.Len() {
		return false
	}
	for i := uint64(0); i < uint64(a.Len()); i++ {
		if !eq(a.At(a.head+i), b.At(b.head+i)) {
			return false
		}
	}
	return true
}

// RelTime normalises an absolute cycle v against the machine's current
// cycle now: a deadline at or before now is simply "ready" and maps to
// 0, a future one to its remaining distance. Two machines whose cycle
// counters differ compare deadlines through it.
func RelTime(v, now uint64) uint64 {
	if v <= now {
		return 0
	}
	return v - now
}
