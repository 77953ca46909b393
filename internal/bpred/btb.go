package bpred

import "fmt"

// BTB is a set-associative branch target buffer: it caches the targets of
// taken control transfers so fetch can redirect without decoding.
type BTB struct {
	sets  uint32
	assoc uint32
	tags  []uint32
	tgt   []uint32
	valid []bool
	lru   []uint64
	clock uint64
}

// NewBTB builds a BTB with the given number of sets and associativity.
func NewBTB(sets, assoc uint32) (*BTB, error) {
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("bpred: btb sets %d not a power of two", sets)
	}
	if assoc == 0 {
		return nil, fmt.Errorf("bpred: btb assoc 0")
	}
	n := sets * assoc
	return &BTB{
		sets:  sets,
		assoc: assoc,
		tags:  make([]uint32, n),
		tgt:   make([]uint32, n),
		valid: make([]bool, n),
		lru:   make([]uint64, n),
	}, nil
}

func (b *BTB) set(pc uint32) uint32 { return (pc >> 2) & (b.sets - 1) }
func (b *BTB) tag(pc uint32) uint32 { return (pc >> 2) / b.sets }

// Lookup returns the cached target for the branch at pc, if present.
func (b *BTB) Lookup(pc uint32) (uint32, bool) {
	b.clock++
	base := b.set(pc) * b.assoc
	tag := b.tag(pc)
	for i := uint32(0); i < b.assoc; i++ {
		j := base + i
		if b.valid[j] && b.tags[j] == tag {
			b.lru[j] = b.clock
			return b.tgt[j], true
		}
	}
	return 0, false
}

// Insert records the target of a taken transfer at pc.
func (b *BTB) Insert(pc, target uint32) {
	b.clock++
	base := b.set(pc) * b.assoc
	tag := b.tag(pc)
	victim := base
	for i := uint32(0); i < b.assoc; i++ {
		j := base + i
		if b.valid[j] && b.tags[j] == tag {
			victim = j
			break
		}
		if !b.valid[j] {
			if b.valid[victim] {
				victim = j
			}
			continue
		}
		if b.valid[victim] && b.lru[j] < b.lru[victim] {
			victim = j
		}
	}
	b.tags[victim] = tag
	b.tgt[victim] = target
	b.valid[victim] = true
	b.lru[victim] = b.clock
}

// CloneInto deep-copies the BTB into dst (allocating when dst is nil),
// reusing dst's arrays when their capacity allows.
func (b *BTB) CloneInto(dst *BTB) *BTB {
	if dst == nil {
		dst = &BTB{}
	}
	tags, tgt, valid, lru := dst.tags, dst.tgt, dst.valid, dst.lru
	*dst = *b
	dst.tags = append(tags[:0], b.tags...)
	dst.tgt = append(tgt[:0], b.tgt...)
	dst.valid = append(valid[:0], b.valid...)
	dst.lru = append(lru[:0], b.lru...)
	return dst
}

// StateEqualRanked reports whether two BTBs will behave identically from
// here on. Tags, targets and valid bits must match exactly; recency is
// compared by per-set rank order rather than raw lru clocks, because two
// histories that touched a set in the same relative order but at
// different absolute times (e.g. one machine replayed a few fetches
// after a fault recovery) still make every future lookup and victim
// choice identically.
func (b *BTB) StateEqualRanked(o *BTB) bool {
	if o.sets != b.sets || o.assoc != b.assoc {
		return false
	}
	for j := range b.tags {
		if b.valid[j] != o.valid[j] {
			return false
		}
		if b.valid[j] && (b.tags[j] != o.tags[j] || b.tgt[j] != o.tgt[j]) {
			return false
		}
	}
	for set := uint32(0); set < b.sets; set++ {
		base := set * b.assoc
		for i := uint32(0); i < b.assoc; i++ {
			j := base + i
			if !b.valid[j] {
				continue
			}
			// Rank of line j among its set's valid lines: how many are
			// less recently used. O(assoc²) per set with tiny assoc.
			var rb, ro int
			for k := uint32(0); k < b.assoc; k++ {
				jk := base + k
				if b.valid[jk] && b.lru[jk] < b.lru[j] {
					rb++
				}
				if o.valid[jk] && o.lru[jk] < o.lru[j] {
					ro++
				}
			}
			if rb != ro {
				return false
			}
		}
	}
	return true
}

// RAS is a return-address stack predicting jr-via-ra returns. Pushes on
// call (jal/jalr), pops on return.
type RAS struct {
	stack []uint32
	top   int
	size  int
}

// NewRAS builds a return-address stack with the given depth.
func NewRAS(size int) (*RAS, error) {
	if size <= 0 {
		return nil, fmt.Errorf("bpred: ras size %d", size)
	}
	return &RAS{stack: make([]uint32, size), size: size}, nil
}

// Push records a return address (circularly; deep recursion overwrites).
func (r *RAS) Push(addr uint32) {
	r.stack[r.top%r.size] = addr
	r.top++
}

// Pop predicts the next return address.
func (r *RAS) Pop() (uint32, bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top%r.size], true
}

// CloneInto deep-copies the RAS into dst (allocating when dst is nil),
// reusing dst's stack when its capacity allows.
func (r *RAS) CloneInto(dst *RAS) *RAS {
	if dst == nil {
		dst = &RAS{}
	}
	stack := dst.stack
	*dst = *r
	dst.stack = append(stack[:0], r.stack...)
	return dst
}

// StateEqual reports whether two stacks predict identically from here
// on: same depth and same reachable entries. Slots deeper than size
// below top have been overwritten and can never be popped, so they are
// ignored.
func (r *RAS) StateEqual(o *RAS) bool {
	if o.size != r.size || o.top != r.top {
		return false
	}
	lo := r.top - r.size
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < r.top; i++ {
		if r.stack[i%r.size] != o.stack[i%o.size] {
			return false
		}
	}
	return true
}
