package mem

import "testing"

// suffix runs fn on a clone of the golden cache g with a read log
// installed and returns the log: what that future of g observes. g
// itself keeps its boundary state.
func suffix(g *Cache, fn func(future *Cache)) *ReadLog {
	future := g.CloneInto(nil)
	rl := newReadLog(g.sets, g.cfg.Assoc)
	future.log = rl
	fn(future)
	return rl
}

// Set 0 of the injection-test cache (4 sets, 2 ways, 32-byte blocks)
// holds blocks 0x000, 0x080, 0x100, ...

// Two sets holding the same lines in the same recency order compare
// equal whichever ways the lines occupy; a different recency order
// does not.
func TestSetsCompareWayOrderFree(t *testing.T) {
	a, _ := injectCache(t, false)
	a.Access(0x00, false)
	a.Access(0x80, false) // way 0: 0x00 (older), way 1: 0x80
	b, _ := injectCache(t, false)
	b.Access(0x80, false)
	b.Access(0x00, false)
	b.Access(0x80, false) // way 0: 0x80, way 1: 0x00 (older)
	if a.lines[0].tag == b.lines[0].tag {
		t.Fatal("setup: lines should occupy different ways")
	}
	if !a.StateEqualOn(b, nil) {
		t.Error("way-permuted, rank-equal sets should compare equal")
	}
	missed := newReadLog(b.sets, b.cfg.Assoc)
	missed.missed.set(0)
	if !a.StateEqualOn(b, missed) {
		t.Error("way-permuted, rank-equal missed sets should compare equal")
	}
	c, _ := injectCache(t, false)
	c.Access(0x80, false)
	c.Access(0x00, false) // 0x80 older: recency order differs from a's
	if a.StateEqualOn(c, nil) {
		t.Error("sets with different recency order should compare unequal")
	}
	d := b.CloneInto(nil)
	d.lines[1].dirty = true // the older line would write back on eviction
	if a.StateEqualOn(d, nil) || a.StateEqualOn(d, missed) {
		t.Error("sets differing in a dirty bit should compare unequal")
	}
}

// In a set the golden suffix only hits, the trial must hold every tag
// the suffix hits; nothing else in the set is compared.
func TestHitOnlySetComparesHitTags(t *testing.T) {
	g, _ := injectCache(t, false)
	g.Access(0x00, true)
	g.Access(0x80, false)
	trial := g.CloneInto(nil)
	trial.Access(0x100, false) // evicts 0x00 (dirty) in the trial only

	hitsNewer := suffix(g, func(f *Cache) { f.Access(0x80, false) })
	if !trial.StateEqualOn(g, hitsNewer) {
		t.Error("trial holds every tag the suffix hits; other ways must not be compared")
	}
	if trial.StateEqualOn(g, nil) {
		t.Error("exact comparison should see the evicted line")
	}
	hitsEvicted := suffix(g, func(f *Cache) { f.Access(0x00, false) })
	if trial.StateEqualOn(g, hitsEvicted) {
		t.Error("a tag the suffix hits is missing from the trial's set")
	}
}

// A fired residue in a set the suffix never misses in can never settle
// (inert); in a missed set it blocks equality with the clean golden
// cache.
func TestResidueInertOnlyInHitOnlySets(t *testing.T) {
	g, p := injectCache(t, false)
	g.Access(0x00, false)
	trial := g.CloneInto(nil)
	trial.SetWordPlane(p)
	if fired, _, _ := trial.InjectDataFlip(4, 2); !fired {
		t.Fatal("flip did not fire")
	}
	hitOnly := suffix(g, func(f *Cache) { f.Access(0x00, false) })
	if !trial.StateEqualOn(g, hitOnly) {
		t.Error("residue in a hit-only set should be inert")
	}
	missedSet := suffix(g, func(f *Cache) { f.Access(0x80, false) })
	if trial.StateEqualOn(g, missedSet) {
		t.Error("residue in a missed set must block equality")
	}
	if trial.StateEqualOn(g, nil) {
		t.Error("residue must block exact equality")
	}
}

// A pending lost-write-back record can still fire, so it blocks
// equality even against a suffix that observes nothing.
func TestPendingLostWriteBackAlwaysBlocks(t *testing.T) {
	g, p := injectCache(t, false)
	g.Access(0x00, false)
	trial := g.CloneInto(nil)
	trial.SetWordPlane(p)
	trial.InjectDirtyClear(0x00, false)
	if trial.frec.kind == frNone {
		t.Fatal("setup: record not armed")
	}
	if trial.StateEqualOn(g, suffix(g, func(*Cache) {})) {
		t.Error("pending lost-write-back record must block equality")
	}
}

// A TLB entry whose tag flipped, after the trial re-filled the good
// tag into another way, compares equal on a suffix that only hits that
// set — the flipped entry is never observed.
func TestTLBRefilledFlipInHitOnlySet(t *testing.T) {
	g, err := NewTLB(TLBConfig{Name: "t", Entries: 4, Assoc: 2, PageBytes: 4096, MissLatency: 30})
	if err != nil {
		t.Fatal(err)
	}
	g.Access(0, false)
	trial := g.CloneInto(nil)
	if !trial.InjectEntryFlip(0, 1) {
		t.Fatal("flip did not fire")
	}
	trial.Access(0, false) // pseudo-miss: the good tag refills another way
	if rl := suffix(g, func(f *Cache) { f.Access(0, false) }); !trial.StateEqualOn(g, rl) {
		t.Error("flipped entry in a hit-only set should not be observed")
	}
	if trial.StateEqualOn(g, nil) {
		t.Error("exact comparison should see the flipped entry")
	}
}

// Clones never carry a read log: forks must not write into the shared
// golden log.
func TestCloneCarriesNoReadLog(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{
		L1I:        CacheConfig{Name: "il1", SizeBytes: 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2},
		L1D:        CacheConfig{Name: "dl1", SizeBytes: 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2},
		L2:         CacheConfig{Name: "ul2", SizeBytes: 8192, BlockBytes: 64, Assoc: 4, HitLatency: 12},
		ITLB:       TLBConfig{Name: "itlb", Entries: 16, Assoc: 4, PageBytes: 4096, MissLatency: 30},
		DTLB:       TLBConfig{Name: "dtlb", Entries: 32, Assoc: 4, PageBytes: 4096, MissLatency: 30},
		MemLatency: 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := h.NewReads()
	h.SetReadLog(r)
	cl := h.CloneInto(nil)
	cl.FetchLatency(0x40)
	cl.DataLatency(0x2000, true)
	if !emptyReads(r) {
		t.Fatal("accesses through a clone must not reach the source's log")
	}
	h.FetchLatency(0x40)
	h.DataLatency(0x2000, true)
	if emptyReads(r) {
		t.Error("accesses through the logging hierarchy should be recorded")
	}
}

func emptyReads(r *HierReads) bool {
	for _, rl := range []*ReadLog{r.l1i, r.l1d, r.l2, r.itlb, r.dtlb} {
		for _, b := range []bitset{rl.missed, rl.hit} {
			for _, w := range b {
				if w != 0 {
					return false
				}
			}
		}
	}
	return true
}
