package mem

import "testing"

// testPlane is a slice-backed WordPlane standing in for the
// architectural memory.
type testPlane struct{ words []uint32 }

func newTestPlane(bytes uint32) *testPlane {
	p := &testPlane{words: make([]uint32, bytes/4)}
	for i := range p.words {
		p.words[i] = 0x1000_0000 + uint32(i)
	}
	return p
}

func (p *testPlane) ReadWord(addr uint32) (uint32, error) { return p.words[addr/4], nil }
func (p *testPlane) WriteWord(addr, v uint32) error       { p.words[addr/4] = v; return nil }
func (p *testPlane) Size() uint32                         { return uint32(len(p.words)) * 4 }
func (p *testPlane) word(addr uint32) uint32              { return p.words[addr/4] }

// injectCache builds the 4-set 2-way 32B-block cache the injection
// tests share, attached to a fresh 1 KB plane.
func injectCache(t *testing.T, ecc bool) (*Cache, *testPlane) {
	t.Helper()
	mm := MainMemory{Latency: 10}
	c, err := NewCache(CacheConfig{
		Name: "l1", SizeBytes: 256, BlockBytes: 32, Assoc: 2, HitLatency: 2, ECC: ecc,
	}, mm)
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPlane(1024)
	c.SetWordPlane(p)
	return c, p
}

func TestInjectDataFlipRevertsOnCleanEviction(t *testing.T) {
	c, p := injectCache(t, false)
	orig := p.word(4)
	c.Access(0, false) // resident, clean
	fired, corrected, detected := c.InjectDataFlip(4, 7)
	if !fired || corrected || detected {
		t.Fatalf("flip = (%v,%v,%v), want (true,false,false)", fired, corrected, detected)
	}
	if got := p.word(4); got != orig^(1<<7) {
		t.Fatalf("word after flip = %#x, want %#x", got, orig^(1<<7))
	}
	if c.frec.kind == frNone {
		t.Fatal("residue record should be armed")
	}
	// Evict the clean victim: set 0 holds {0x00}; fill the other way and
	// then force a replacement.
	c.Access(0x80, false)
	c.Access(0x100, false) // evicts block 0 (LRU, clean) -> revert
	if got := p.word(4); got != orig {
		t.Errorf("clean eviction should revert flip: word = %#x, want %#x", got, orig)
	}
	if c.frec.kind != frNone {
		t.Error("residue should be settled after eviction")
	}
}

func TestInjectDataFlipPersistsOnDirtyEviction(t *testing.T) {
	c, p := injectCache(t, false)
	orig := p.word(4)
	c.Access(0, true) // resident, dirty
	if fired, _, _ := c.InjectDataFlip(4, 3); !fired {
		t.Fatal("flip did not fire")
	}
	c.Access(0x80, false)
	c.Access(0x100, false) // evicts block 0 dirty -> write-back carries corruption
	if got := p.word(4); got != orig^(1<<3) {
		t.Errorf("dirty eviction should persist flip: word = %#x, want %#x", got, orig^(1<<3))
	}
	if c.frec.kind != frNone {
		t.Error("residue should be settled after eviction")
	}
}

func TestInjectDataFlipECCVerdicts(t *testing.T) {
	c, p := injectCache(t, true)
	orig := p.word(4)
	c.Access(0, false)
	// Single-bit upset: corrected in place, no state change, no residue.
	fired, corrected, detected := c.InjectDataFlip(4, 5)
	if !fired || !corrected || detected {
		t.Fatalf("single-bit under ECC = (%v,%v,%v), want (true,true,false)", fired, corrected, detected)
	}
	if p.word(4) != orig || c.frec.kind != frNone {
		t.Fatal("corrected upset must not change the plane or arm a residue")
	}
	// Adjacent double-bit upset: applied and flagged detected-uncorrectable.
	fired, corrected, detected = c.InjectDataFlip(4, 32)
	if !fired || corrected || !detected {
		t.Fatalf("double-bit under ECC = (%v,%v,%v), want (true,false,true)", fired, corrected, detected)
	}
	if got := p.word(4); got != orig^0b11 {
		t.Errorf("double-bit flip = %#x, want %#x", got, orig^0b11)
	}
}

func TestInjectDirtyClearLostWriteBack(t *testing.T) {
	c, p := injectCache(t, false)
	orig := p.word(4)
	// Arm before the block's first store: snapshot the pre-store words.
	if c.InjectDirtyClear(0, false) {
		t.Fatal("arming call must not fire")
	}
	// The store: architectural write plus a dirtying cache access.
	p.WriteWord(4, 0xDEAD_BEEF)
	c.Access(0, true)
	// Premature fire attempt while the caller hasn't released it.
	if c.InjectDirtyClear(0, false) {
		t.Fatal("fire=false must keep the record pending")
	}
	if !c.InjectDirtyClear(0, true) {
		t.Fatal("fire should clear the resident dirty bit")
	}
	// Clean eviction: the skipped write-back loses the store.
	c.Access(0x80, false)
	c.Access(0x100, false)
	if got := p.word(4); got != orig {
		t.Errorf("lost write-back should revert the store: word = %#x, want %#x", got, orig)
	}
	if c.frec.kind != frNone {
		t.Error("residue should be settled after eviction")
	}
}

func TestInjectDirtyClearMaskedByRedirty(t *testing.T) {
	c, p := injectCache(t, false)
	c.InjectDirtyClear(0, false)
	p.WriteWord(4, 0xDEAD_BEEF)
	c.Access(0, true)
	if !c.InjectDirtyClear(0, true) {
		t.Fatal("fire should clear the dirty bit")
	}
	// A later store re-dirties the line: the write-back happens after
	// all, so the stored value survives eviction.
	c.Access(0, true)
	c.Access(0x80, false)
	c.Access(0x100, false)
	if got := p.word(4); got != 0xDEAD_BEEF {
		t.Errorf("re-dirtied line must keep the store: word = %#x", got)
	}
}

func TestInjectDirtyClearFireRequiresDirtyResident(t *testing.T) {
	c, _ := injectCache(t, false)
	c.InjectDirtyClear(0, false)
	// Not resident yet: fire must fail and stay pending.
	if c.InjectDirtyClear(0, true) {
		t.Fatal("fire on a non-resident line should fail")
	}
	c.Access(0, false) // resident but clean
	if c.InjectDirtyClear(0, true) {
		t.Fatal("fire on a clean line should fail")
	}
	if c.frec.kind == frNone {
		t.Error("record should remain pending until it fires")
	}
}

func TestInjectTagFlipAliasWriteBack(t *testing.T) {
	c, p := injectCache(t, false)
	// Block 0x00 (set 0, tag 0) dirty; flipping tag bit 0 aliases it to
	// tag 1, i.e. block 0x80.
	c.Access(0, true)
	if !c.InjectTagFlip(0, 0) {
		t.Fatal("tag flip should fire on the resident line")
	}
	if resident(c, 0) {
		t.Error("original address should pseudo-miss after the flip")
	}
	if !resident(c, 0x80) {
		t.Error("aliased address should wrong-line hit")
	}
	origBlock := make([]uint32, 8)
	for i := range origBlock {
		origBlock[i] = p.word(uint32(i) * 4)
	}
	// Evict the corrupted line dirty: the write-back lands on the alias.
	c.Access(0x100, false)
	c.Access(0x180, false) // evicts the flipped (LRU) line
	for i := range origBlock {
		if got := p.word(0x80 + uint32(i)*4); got != origBlock[i] {
			t.Errorf("alias word %d = %#x, want %#x (orig block copied)", i, got, origBlock[i])
		}
	}
	if c.frec.kind != frNone {
		t.Error("residue should be settled after eviction")
	}
}

func TestInjectTagFlipCleanEvictionIsTimingOnly(t *testing.T) {
	c, p := injectCache(t, false)
	aliasOrig := p.word(0x80)
	c.Access(0, false) // clean
	if !c.InjectTagFlip(0, 0) {
		t.Fatal("tag flip should fire")
	}
	c.Access(0x100, false)
	c.Access(0x180, false)
	if got := p.word(0x80); got != aliasOrig {
		t.Errorf("clean eviction must not touch the alias: word = %#x, want %#x", got, aliasOrig)
	}
}

func TestSecondInjectionBlockedWhileArmed(t *testing.T) {
	c, _ := injectCache(t, false)
	c.Access(0, false)
	if fired, _, _ := c.InjectDataFlip(4, 2); !fired {
		t.Fatal("first flip did not fire")
	}
	if fired, _, _ := c.InjectDataFlip(8, 3); fired {
		t.Error("second flip must be refused while a record is armed")
	}
	if c.InjectTagFlip(0, 0) {
		t.Error("tag flip must be refused while a record is armed")
	}
}

// CloneInto must deep-copy the residue record — including the lost-
// write-back snapshot slice — so a forked trial and its parent cannot
// alias each other's settle state across checkpoint restore.
func TestCloneDeepCopiesFaultRec(t *testing.T) {
	c, p := injectCache(t, false)
	c.InjectDirtyClear(0, false) // pending record with an 8-word snapshot
	p.WriteWord(4, 0xDEAD_BEEF)
	c.Access(0, true)
	c.InjectDirtyClear(0, true)

	cp := c.CloneInto(nil)
	cp.SetWordPlane(p)
	if !c.StateEqualOn(cp, nil) {
		t.Fatal("clone should be state-equal to its source")
	}
	// Mutating the source snapshot must not leak into the clone.
	c.frec.snap[0] ^= 0xFFFF
	if c.StateEqualOn(cp, nil) {
		t.Error("snapshot mutation should break state equality (deep copy)")
	}
	c.frec.snap[0] ^= 0xFFFF
	if !c.StateEqualOn(cp, nil) {
		t.Fatal("reverting the mutation should restore equality")
	}
	// The clone settles independently of the source.
	cp.Access(0x80, false)
	cp.Access(0x100, false)
	if cp.frec.kind != frNone {
		t.Error("clone residue should settle on its own eviction")
	}
	if c.frec.kind == frNone {
		t.Error("source residue must survive the clone's eviction")
	}
}

// An armed or pending record keeps a cache from comparing equal to a
// clean one — the residue can still mutate the plane at a future
// eviction, so forked-trial splicing must not land before it settles.
func TestFaultRecBlocksStateEqualRanked(t *testing.T) {
	a, p := injectCache(t, false)
	b, _ := injectCache(t, false)
	b.SetWordPlane(p)
	a.Access(0, false)
	b.Access(0, false)
	if !a.StateEqualOn(b, nil) {
		t.Fatal("identical access streams should be state-equal")
	}
	if fired, _, _ := a.InjectDataFlip(4, 2); !fired {
		t.Fatal("flip did not fire")
	}
	if a.StateEqualOn(b, nil) {
		t.Error("armed residue must block state equality")
	}
	// Pending (never-fired) lost-write-back records block equality too.
	cB, _ := injectCache(t, false)
	cC, _ := injectCache(t, false)
	cB.Access(0, false)
	cC.Access(0, false)
	cB.InjectDirtyClear(0, false)
	if cB.StateEqualOn(cC, nil) {
		t.Error("pending lost-write-back record must block state equality")
	}
}

func TestTLBInjectEntryFlip(t *testing.T) {
	tlb, err := NewTLB(TLBConfig{Name: "t", Entries: 4, Assoc: 2, PageBytes: 4096, MissLatency: 30})
	if err != nil {
		t.Fatal(err)
	}
	if tlb.InjectEntryFlip(0, 1) {
		t.Fatal("flip on an empty TLB should miss")
	}
	tlb.Access(0, false)
	if lat := tlb.Access(0, false); lat != 0 {
		t.Fatalf("warm translate = %d, want 0", lat)
	}
	if !tlb.InjectEntryFlip(0, 1) {
		t.Fatal("flip should hit the resident entry")
	}
	if lat := tlb.Access(0, false); lat != 30 {
		t.Errorf("post-flip translate = %d, want 30 (pseudo-miss)", lat)
	}
}
