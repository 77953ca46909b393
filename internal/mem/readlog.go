package mem

import "math/bits"

// Bounded-future state comparison of caches and TLBs for
// checkpoint/fork fault replay.
//
// A forked trial has reconverged with the golden run at a boundary
// when nothing the golden run does from there on can tell the two
// machines apart. The golden suffix observes a cache or TLB set only
// through its accesses: a hit costs the hit latency; a miss picks a
// victim by recency, writes it back if dirty, and settles any fault
// residue on it. The golden instrumented run logs, per checkpoint, the
// sets its remaining accesses miss in and the lines they hit
// (ReadLog), and the convergence test compares only what those
// accesses can observe:
//
//   - A set the suffix misses in is compared way-order-free: its valid
//     lines, ordered by recency, must carry equal (tag, dirty). Hits,
//     victim choice, write-back addresses and the refilled line's
//     recency depend on nothing else — which way a line occupies is
//     never observed — so such sets evolve identically under equal
//     access streams.
//   - In a set the suffix only hits, each line the golden run hits
//     must hold a tag that is valid somewhere in the trial's set. Every
//     golden access there then hits in the trial too, so nothing is
//     ever evicted from the set: dirty bits, recency and the other
//     ways can never be observed.
//   - Fault residue (inject.go) settles only when its victim line is
//     evicted. A fired record in a set the suffix never misses in can
//     never settle, so it is inert; anywhere else it must match
//     exactly, which keeps a trial with live residue from comparing
//     equal to the clean golden cache. A pending lost-write-back
//     record can still fire, so it always compares exactly.
//
// Soundness is by induction over the golden suffix's accesses, as in
// bpred/readset.go: when the rest of the machine matches and every
// observed set compares equal at the boundary, both machines make the
// same next access, it has the same latency and side effects (lower-
// level write-backs included) in both, and afterwards the observed
// sets still compare equal. A nil log compares every set as missed —
// the exact-future comparison the hang probe needs.

// bitset is a fixed-size set of small integers.
type bitset []uint64

func newBitset(n uint32) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i uint32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i uint32) bool { return b[i>>6]&(1<<(i&63)) != 0 }

func (b bitset) orInto(dst bitset) {
	for i, w := range b {
		dst[i] |= w
	}
}

// ReadLog records what a stretch of execution observes of one cache or
// TLB: the sets some access missed in and the lines some access hit.
type ReadLog struct {
	missed bitset // one bit per set
	hit    bitset // one bit per line (set*assoc + way)
}

func newReadLog(sets, assoc uint32) *ReadLog {
	return &ReadLog{missed: newBitset(sets), hit: newBitset(sets * assoc)}
}

func (r *ReadLog) orInto(dst *ReadLog) {
	r.missed.orInto(dst.missed)
	r.hit.orInto(dst.hit)
}

// HierReads is one ReadLog per cache and TLB of a Hierarchy.
type HierReads struct {
	l1i, l1d, l2, itlb, dtlb *ReadLog
}

// NewReads returns an empty log sized for h's caches and TLBs.
func (h *Hierarchy) NewReads() *HierReads {
	return &HierReads{
		l1i:  newReadLog(h.L1I.sets, h.L1I.cfg.Assoc),
		l1d:  newReadLog(h.L1D.sets, h.L1D.cfg.Assoc),
		l2:   newReadLog(h.L2.sets, h.L2.cfg.Assoc),
		itlb: newReadLog(h.ITLB.sets, h.ITLB.cfg.Assoc),
		dtlb: newReadLog(h.DTLB.sets, h.DTLB.cfg.Assoc),
	}
}

// SetReadLog installs r as the log every cache and TLB records its
// accesses in (nil stops logging). CloneInto never carries a log over,
// so forked machines cannot write into a shared golden log.
func (h *Hierarchy) SetReadLog(r *HierReads) {
	var none HierReads
	if r == nil {
		r = &none
	}
	h.L1I.log, h.L1D.log, h.L2.log = r.l1i, r.l1d, r.l2
	h.ITLB.log, h.DTLB.log = r.itlb, r.dtlb
}

// OrInto unions r into dst (both from the same hierarchy's NewReads).
func (r *HierReads) OrInto(dst *HierReads) {
	r.l1i.orInto(dst.l1i)
	r.l1d.orInto(dst.l1d)
	r.l2.orInto(dst.l2)
	r.itlb.orInto(dst.itlb)
	r.dtlb.orInto(dst.dtlb)
}

// StateEqualOn reports whether h behaves identically to o, the golden
// hierarchy whose suffix r logged, for every access of that suffix. A
// nil r compares every set of every level (identical behavior under
// any access stream).
func (h *Hierarchy) StateEqualOn(o *Hierarchy, r *HierReads) bool {
	var none HierReads
	if r == nil {
		r = &none
	}
	return h.L1I.StateEqualOn(o.L1I, r.l1i) &&
		h.L1D.StateEqualOn(o.L1D, r.l1d) &&
		h.L2.StateEqualOn(o.L2, r.l2) &&
		h.ITLB.StateEqualOn(o.ITLB, r.itlb) &&
		h.DTLB.StateEqualOn(o.DTLB, r.dtlb)
}

// StateEqualOn reports whether the cache behaves identically to o, the
// golden cache whose suffix rl logged, for every access of that suffix
// (nil rl: for any access stream). Statistics counters are not
// compared — they record the past, not the future.
func (c *Cache) StateEqualOn(o *Cache, rl *ReadLog) bool {
	if c.cfg != o.cfg {
		return false
	}
	liveC, liveO := c.frec.live(rl), o.frec.live(rl)
	if liveC || liveO {
		if !liveC || !liveO || !faultRecEqual(c.frec, o.frec) {
			return false
		}
		// Equal fired records in a set compared way-order-free must
		// name the same logical line, or they settle differently.
		if !c.frec.pending {
			lo, hi := c.frec.set*c.cfg.Assoc, (c.frec.set+1)*c.cfg.Assoc
			a, b, w := c.lines[lo:hi], o.lines[lo:hi], int(c.frec.idx-lo)
			if a[w].valid != b[w].valid || rank(a, w) != rank(b, w) {
				return false
			}
		}
	}
	return linesEqualOn(c.lines, o.lines, c.cfg.Assoc, rl)
}

// live reports whether a fault record can still act during a suffix
// logged in rl: it is armed, and either pending (it may yet fire) or
// its set sees a miss (it may settle). With a nil rl every armed
// record is live.
func (r *faultRec) live(rl *ReadLog) bool {
	if r.kind == frNone {
		return false
	}
	return rl == nil || r.pending || rl.missed.has(r.set)
}

// faultRecEqual compares two armed records field by field.
func faultRecEqual(a, b faultRec) bool {
	if a.kind != b.kind || a.pending != b.pending ||
		a.idx != b.idx || a.set != b.set || a.origTag != b.origTag ||
		a.waddr != b.waddr || a.wmask != b.wmask || a.wflip != b.wflip ||
		len(a.snap) != len(b.snap) {
		return false
	}
	for i := range a.snap {
		if a.snap[i] != b.snap[i] {
			return false
		}
	}
	return true
}

// linesEqualOn compares two line arrays of the same geometry — a the
// trial's, g the golden machine's whose suffix rl logged — on what
// that suffix observes; nil rl compares every set way-order-free.
func linesEqualOn(a, g []line, assoc uint32, rl *ReadLog) bool {
	if len(a) != len(g) {
		return false
	}
	if rl == nil {
		for lo := uint32(0); lo < uint32(len(a)); lo += assoc {
			if !setEqual(a[lo:lo+assoc], g[lo:lo+assoc]) {
				return false
			}
		}
		return true
	}
	for wi, w := range rl.missed {
		for ; w != 0; w &= w - 1 {
			lo := (uint32(wi)<<6 | uint32(bits.TrailingZeros64(w))) * assoc
			if !setEqual(a[lo:lo+assoc], g[lo:lo+assoc]) {
				return false
			}
		}
	}
	for wi, w := range rl.hit {
		for ; w != 0; w &= w - 1 {
			j := uint32(wi)<<6 | uint32(bits.TrailingZeros64(w))
			s := j / assoc
			if rl.missed.has(s) {
				continue
			}
			// No golden miss in s from here on, so golden line j still
			// holds the tag the suffix hits.
			if !g[j].valid || !holdsTag(a[s*assoc:(s+1)*assoc], g[j].tag) {
				return false
			}
		}
	}
	return true
}

// setEqual reports whether two sets hold the same valid lines in the
// same recency order — equal (tag, dirty) rank by rank — whatever ways
// they occupy. The valid lines of a set carry distinct lru clocks
// (every access stamps one line with a fresh clock), so ranks are a
// permutation and matching by rank pairs the lines one to one.
func setEqual(a, b []line) bool {
	n := 0
	for i := range a {
		if b[i].valid {
			n--
		}
		if !a[i].valid {
			continue
		}
		n++
		r, j := rank(a, i), i
		if !b[j].valid || rank(b, j) != r {
			if j = byRank(b, r); j < 0 {
				return false
			}
		}
		if a[i].tag != b[j].tag || a[i].dirty != b[j].dirty {
			return false
		}
	}
	return n == 0
}

// rank returns how many valid lines of set are less recently used than
// set[i].
func rank(set []line, i int) int {
	n := 0
	for k := range set {
		if set[k].valid && set[k].lru < set[i].lru {
			n++
		}
	}
	return n
}

// byRank returns the way of the valid line with the given rank, or -1.
func byRank(set []line, r int) int {
	for j := range set {
		if set[j].valid && rank(set, j) == r {
			return j
		}
	}
	return -1
}

// holdsTag reports whether some valid line of set carries tag.
func holdsTag(set []line, tag uint32) bool {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}
