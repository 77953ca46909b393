package ruu

import (
	"fmt"

	"reese/internal/emu"
	"reese/internal/ring"
)

// LSQEntry is one in-flight memory instruction in the load/store queue.
type LSQEntry struct {
	// MemSeq is the memory-order sequence number (slot key).
	MemSeq uint64
	// Seq is the owning instruction's RUU sequence number.
	Seq uint64
	// IsStore distinguishes stores from loads.
	IsStore bool
	// Addr and Width describe the access (known from the oracle; the
	// timing model releases them when the instruction issues).
	Addr  uint32
	Width uint32

	// Issued is set when the owning instruction issues (address and, for
	// stores, data are then known to the queue).
	Issued bool
	// Forwarded marks loads satisfied by store-to-load forwarding.
	Forwarded bool
}

// LSQ is the load/store queue: memory instructions in program order.
// Entries are freed at commit (baseline) or after R-stream verification
// (REESE), which is what makes the LSQ a REESE pressure point.
type LSQ struct {
	ring.Ring[LSQEntry]
}

// NewLSQ builds a load/store queue with the given capacity.
func NewLSQ(size int) (*LSQ, error) {
	if size < 1 {
		return nil, fmt.Errorf("ruu: lsq size %d too small", size)
	}
	return &LSQ{ring.Make[LSQEntry](size)}, nil
}

// Dispatch allocates the tail entry for the memory instruction in tr.
// It returns nil if the queue is full.
func (q *LSQ) Dispatch(tr emu.Trace, seq uint64) *LSQEntry {
	if q.Full() {
		return nil
	}
	return q.Push(LSQEntry{
		MemSeq:  q.NextSeq(),
		Seq:     seq,
		IsStore: tr.Inst.Op.IsStore(),
		Addr:    tr.Addr,
		Width:   tr.MemWidth,
	})
}

// overlap reports whether two accesses touch any common byte.
func overlap(a1 uint32, w1 uint32, a2 uint32, w2 uint32) bool {
	return a1 < a2+w2 && a2 < a1+w1
}

// LoadDisposition classifies how a load may proceed.
type LoadDisposition uint8

// Load dispositions.
const (
	// LoadBlocked: an earlier store's address is still unknown; the load
	// must wait (conservative memory disambiguation).
	LoadBlocked LoadDisposition = iota
	// LoadForward: an earlier resident store to an overlapping address
	// supplies the value directly (1-cycle forwarding).
	LoadForward
	// LoadFromCache: no conflicts; the load accesses the data cache.
	LoadFromCache
)

// CheckLoad decides the disposition of the load with sequence memSeq
// against all earlier resident stores.
func (q *LSQ) CheckLoad(memSeq uint64) LoadDisposition {
	e := q.Get(memSeq)
	disp := LoadFromCache
	for ms := q.HeadSeq(); ms < memSeq; ms++ {
		s := q.At(ms)
		if !s.IsStore {
			continue
		}
		if !s.Issued {
			// Unknown address: conservatively block.
			return LoadBlocked
		}
		if overlap(s.Addr, s.Width, e.Addr, e.Width) {
			// Youngest matching store wins; keep scanning so a later
			// unissued store can still block.
			disp = LoadForward
		}
	}
	return disp
}
