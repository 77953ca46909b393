package mem

// Fault-injection surface for the timing hierarchy. The caches model
// timing only — data lives in the architectural memory — so a cache
// fault is modeled as (a) an immediate perturbation of the timing state
// (tag bits, dirty bit) or of the architectural word behind the line,
// plus (b) a residue record that settles when the victim line is next
// evicted: a flipped tag becomes a wrong-address write-back, a cleared
// dirty bit becomes a lost write-back, a resident-data flip is reverted
// by a clean refill. At most one fault record is armed per cache (a
// campaign injects a single fault per trial).

// WordPlane is the architectural backing store a cache data fault reads
// and writes. *program.Memory satisfies it.
type WordPlane interface {
	ReadWord(addr uint32) (uint32, error)
	WriteWord(addr, v uint32) error
	Size() uint32
}

// Fault-record kinds.
const (
	frNone   uint8 = iota
	frTag          // tag flipped; wrong-address write-back if evicted dirty
	frLostWB       // dirty bit cleared; revert line words if evicted clean
	frData         // resident-data word flipped; clean refill reverts it
)

// faultRec is the residue one injected cache fault leaves until the
// victim line is evicted.
type faultRec struct {
	kind    uint8
	pending bool   // frLostWB armed but dirty bit not yet cleared
	idx     uint32 // victim line index (set*assoc + way)
	set     uint32
	origTag uint32   // frTag: pre-flip tag
	waddr   uint32   // frData: flipped word; frLostWB: line base address
	wmask   uint32   // frData: XOR mask applied to the word
	wflip   uint32   // frData: word value immediately after the flip
	snap    []uint32 // frLostWB: architectural line words at arm time
}

// SetWordPlane attaches the architectural memory the cache's data
// faults operate on. The pipeline re-points this after every clone.
func (c *Cache) SetWordPlane(p WordPlane) { c.plane = p }

// locate returns the line index holding addr, or false.
func (c *Cache) locate(addr uint32) (uint32, bool) {
	blockAddr := addr >> c.shiftB
	set := blockAddr & c.maskS
	tag := blockAddr >> c.shiftS
	base := set * c.cfg.Assoc
	for i := uint32(0); i < c.cfg.Assoc; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == tag {
			return base + i, true
		}
	}
	return 0, false
}

// InjectTagFlip flips one tag bit of the line holding addr. The line
// keeps answering hits under its corrupted tag (wrong-line hits) while
// the original address pseudo-misses; if the line is evicted dirty, its
// write-back lands at the aliased address — the data words of the
// original block are copied over the aliased block in the architectural
// plane. The flipped bit is bounded so the alias stays inside the
// plane. Returns false if the line is not resident (caller re-polls).
func (c *Cache) InjectTagFlip(addr uint32, bit uint8) bool {
	if c.plane == nil || c.frec.kind != frNone {
		return false
	}
	idx, ok := c.locate(addr)
	if !ok {
		return false
	}
	tagBits := int32(planeBits(c.plane.Size())) - int32(c.shiftB) - int32(c.shiftS)
	if tagBits <= 0 {
		return false
	}
	ln := &c.lines[idx]
	c.frec = faultRec{kind: frTag, idx: idx, set: idx / c.cfg.Assoc, origTag: ln.tag, snap: c.frec.snap[:0]}
	ln.tag ^= 1 << (uint32(bit) % uint32(tagBits))
	return true
}

// InjectDirtyClear models a dirty-bit upset as a lost write-back. The
// caller arms it before the first store to the victim block reaches
// the architectural plane: the first call snapshots the block's words
// (pre-store state). Calls with fire=false only arm; once fire is true
// (the caller has seen the block's last store retire, so no later
// store can re-dirty the line and mask the upset), the record fires
// when the line is resident and dirty, clearing the dirty bit. If the
// line is then evicted clean, the skipped write-back is modeled by
// reverting the block's words to the snapshot — every store to the
// block is lost, which is what an unwritten dirty line costs. Returns
// true when the dirty bit has been cleared.
func (c *Cache) InjectDirtyClear(addr uint32, fire bool) bool {
	if c.plane == nil {
		return false
	}
	base := addr &^ (c.cfg.BlockBytes - 1)
	if c.frec.kind == frNone {
		snap := c.frec.snap[:0]
		for off := uint32(0); off < c.cfg.BlockBytes; off += 4 {
			v, err := c.plane.ReadWord(base + off)
			if err != nil {
				return false
			}
			snap = append(snap, v)
		}
		c.frec = faultRec{kind: frLostWB, pending: true, waddr: base, snap: snap}
	}
	if c.frec.kind != frLostWB || !c.frec.pending || !fire {
		return false
	}
	idx, ok := c.locate(addr)
	if !ok || !c.lines[idx].dirty {
		return false
	}
	c.lines[idx].dirty = false
	c.frec.pending = false
	c.frec.idx = idx
	c.frec.set = idx / c.cfg.Assoc
	return true
}

// InjectDataFlip flips data bits of the architectural word behind a
// resident line. bits selects the upset: bits<32 is a single-bit flip
// of that bit, bits>=32 is an adjacent double-bit flip. With ECC
// configured, a single-bit upset is corrected in place (no state
// change, corrected=true) and a double-bit upset is applied and flagged
// detected-uncorrectable. An applied flip arms a residue record: if the
// line is evicted clean, the refill restores the word (compare-and-
// revert); if evicted dirty, the corruption is written back and
// persists. Returns fired=false if the line is not resident.
func (c *Cache) InjectDataFlip(addr uint32, bits uint8) (fired, corrected, detected bool) {
	if c.plane == nil || c.frec.kind != frNone {
		return false, false, false
	}
	if _, ok := c.locate(addr); !ok {
		return false, false, false
	}
	if c.cfg.ECC && bits < 32 {
		return true, true, false
	}
	var mask uint32
	if bits < 32 {
		mask = 1 << bits
	} else {
		b := uint32(bits) - 32
		mask = 1<<b | 1<<((b+1)%32)
	}
	waddr := addr &^ 3
	v, err := c.plane.ReadWord(waddr)
	if err != nil {
		return false, false, false
	}
	if err := c.plane.WriteWord(waddr, v^mask); err != nil {
		return false, false, false
	}
	idx, _ := c.locate(addr)
	c.frec = faultRec{kind: frData, idx: idx, set: idx / c.cfg.Assoc,
		waddr: waddr, wmask: mask, wflip: v ^ mask, snap: c.frec.snap[:0]}
	return true, false, c.cfg.ECC
}

// settleFault resolves the armed record against the line being evicted.
// Called with the victim line just before it is written back/replaced.
func (c *Cache) settleFault(victim *line) {
	rec := c.frec
	if rec.kind == frLostWB && rec.pending {
		return // never fired; keep waiting
	}
	c.frec = faultRec{snap: rec.snap[:0]}
	if c.plane == nil {
		return
	}
	switch rec.kind {
	case frLostWB:
		if victim.dirty {
			return // re-dirtied: the write-back carries everything
		}
		for i, v := range rec.snap {
			a := rec.waddr + uint32(i)*4
			if cur, err := c.plane.ReadWord(a); err == nil && cur != v {
				c.plane.WriteWord(a, v)
			}
		}
	case frData:
		if victim.dirty {
			return // written back: the corruption persists
		}
		if cur, err := c.plane.ReadWord(rec.waddr); err == nil && cur == rec.wflip {
			c.plane.WriteWord(rec.waddr, cur^rec.wmask)
		}
	case frTag:
		if !victim.dirty {
			return // clean eviction: the flip was timing-only
		}
		origBase := (rec.origTag<<c.shiftS | rec.set) << c.shiftB
		aliasBase := (victim.tag<<c.shiftS | rec.set) << c.shiftB
		for off := uint32(0); off < c.cfg.BlockBytes; off += 4 {
			v, err := c.plane.ReadWord(origBase + off)
			if err != nil {
				return
			}
			if c.plane.WriteWord(aliasBase+off, v) != nil {
				return
			}
		}
	}
}

// planeBits returns the number of significant address bits for a plane
// of the given size (ceil(log2(size))).
func planeBits(size uint32) uint32 {
	var n uint32
	for size > 1 {
		size = (size + 1) >> 1
		n++
	}
	return n
}

// InjectEntryFlip flips tag bit bit%16 of the TLB entry translating
// addr, turning future lookups of that page into pseudo-misses (and
// possibly aliased hits for another page). Translation timing is
// perturbed; the architectural translation itself is identity-mapped
// in this machine model, so the upset is timing-visible only and
// leaves no residue record. Returns false if no entry covers addr
// (caller re-polls).
func (c *Cache) InjectEntryFlip(addr uint32, bit uint8) bool {
	idx, ok := c.locate(addr)
	if ok {
		c.lines[idx].tag ^= 1 << (uint32(bit) % 16)
	}
	return ok
}
