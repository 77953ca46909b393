package mem

import (
	"testing"
	"testing/quick"
)

func smallCache(t *testing.T, next Level) *Cache {
	t.Helper()
	c, err := NewCache(CacheConfig{
		Name:       "l1",
		SizeBytes:  256, // 4 sets × 2 ways × 32B
		BlockBytes: 32,
		Assoc:      2,
		HitLatency: 2,
	}, next)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// resident reports whether addr hits in c, without touching its state.
func resident(c *Cache, addr uint32) bool {
	_, ok := c.locate(addr)
	return ok
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "x", SizeBytes: 100, BlockBytes: 32, Assoc: 2, HitLatency: 1}, // size not divisible
		{Name: "x", SizeBytes: 256, BlockBytes: 33, Assoc: 2, HitLatency: 1}, // block not pow2
		{Name: "x", SizeBytes: 256, BlockBytes: 32, Assoc: 0, HitLatency: 1}, // zero assoc
		{Name: "x", SizeBytes: 256, BlockBytes: 32, Assoc: 2, HitLatency: 0}, // zero latency
		{Name: "x", SizeBytes: 192, BlockBytes: 32, Assoc: 2, HitLatency: 1}, // 3 sets
		{Name: "x", SizeBytes: 0, BlockBytes: 32, Assoc: 2, HitLatency: 1},   // zero size
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config %+v should be invalid", i, cfg)
		}
	}
	good := CacheConfig{Name: "ok", SizeBytes: 32 * 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	mm := MainMemory{Latency: 18}
	c := smallCache(t, mm)
	if lat := c.Access(0x1000, false); lat != 2+18 {
		t.Errorf("cold miss latency = %d, want 20", lat)
	}
	if lat := c.Access(0x1000, false); lat != 2 {
		t.Errorf("hit latency = %d, want 2", lat)
	}
	// Same block, different offset: still a hit.
	if lat := c.Access(0x101c, false); lat != 2 {
		t.Errorf("same-block hit latency = %d, want 2", lat)
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	mm := MainMemory{Latency: 10}
	c := smallCache(t, mm) // 4 sets, 2 ways, 32B blocks: set = (addr>>5)&3
	// Three blocks mapping to set 0: addresses 0, 128*1, ... set index bits are addr[6:5].
	a := uint32(0x0000) // set 0
	b := uint32(0x0080) // set 0 (bit7 is tag)
	d := uint32(0x0100) // set 0
	c.Access(a, false)  // miss, A in
	c.Access(b, false)  // miss, B in
	c.Access(a, false)  // hit, A is MRU
	c.Access(d, false)  // miss, evicts B (LRU)
	if !resident(c, a) {
		t.Error("A should still be resident")
	}
	if resident(c, b) {
		t.Error("B should have been evicted (LRU)")
	}
	if !resident(c, d) {
		t.Error("D should be resident")
	}
}

func TestWriteBackOnDirtyEviction(t *testing.T) {
	mm := MainMemory{Latency: 10}
	c := smallCache(t, mm)
	a := uint32(0x0000)
	b := uint32(0x0080)
	d := uint32(0x0100)
	c.Access(a, true)         // write miss, allocate dirty
	c.Access(b, false)        // read miss
	lat := c.Access(d, false) // evicts dirty A: write-back + fetch
	if lat != 2+10+10 {
		t.Errorf("dirty eviction latency = %d, want 22 (hit+wb+fetch)", lat)
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
	// Clean eviction must not write back.
	c.Access(a, false) // evicts b or d (both clean now? b clean, d clean) -> no wb
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks after clean eviction = %d, want 1", got)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	mm := MainMemory{Latency: 10}
	c := smallCache(t, mm)
	a := uint32(0x0000)
	c.Access(a, false) // clean
	c.Access(a, true)  // dirty via write hit
	c.Access(0x0080, false)
	c.Access(0x0100, false) // evicts a (LRU), must write back
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
}

func TestTwoLevelHierarchyLatencies(t *testing.T) {
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
	// First data access: D-TLB miss (30) + L1 miss (2) + L2 miss (12) + mem (18).
	if lat := h.DataLatency(0x2000, false); lat != 30+2+12+18 {
		t.Errorf("cold access latency = %d, want 62", lat)
	}
	// Second access to same line: all hits, TLB hit adds nothing.
	if lat := h.DataLatency(0x2004, false); lat != 2 {
		t.Errorf("warm access latency = %d, want 2", lat)
	}
	// Instruction fetch path is independent of data path at L1.
	if lat := h.FetchLatency(0x2000); lat != 30+2+12 {
		t.Errorf("fetch after data warm: = %d, want 44 (L2 hit)", lat)
	}
}

// Page 0 misses, its last byte hits, the next page misses. The 2 GiB
// pages give a reach (entries × page size) past 32 bits: the geometry
// must come from the set count and the page size, not from a byte
// capacity that overflows uint32.
func TestTLB(t *testing.T) {
	for _, page := range []uint32{4096, 1 << 31} {
		tlb, err := NewTLB(TLBConfig{Name: "t", Entries: 4, Assoc: 2, PageBytes: page, MissLatency: 30})
		if err != nil {
			t.Fatal(err)
		}
		if lat := tlb.Access(0, false); lat != 30 {
			t.Errorf("page %#x: cold translate = %d, want 30", page, lat)
		}
		if lat := tlb.Access(page-1, false); lat != 0 {
			t.Errorf("page %#x: same-page translate = %d, want 0", page, lat)
		}
		if lat := tlb.Access(page, false); lat != 30 {
			t.Errorf("page %#x: next-page translate = %d, want 30", page, lat)
		}
		s := tlb.Stats()
		if s.Accesses != 3 || s.Hits != 1 || s.Misses != 2 {
			t.Errorf("page %#x: tlb stats = %+v", page, s)
		}
	}
}

func TestTLBConfigValidate(t *testing.T) {
	bad := []TLBConfig{
		{Name: "x", Entries: 4, Assoc: 2, PageBytes: 1000, MissLatency: 30},
		{Name: "x", Entries: 5, Assoc: 2, PageBytes: 4096, MissLatency: 30},
		{Name: "x", Entries: 0, Assoc: 2, PageBytes: 4096, MissLatency: 30},
		{Name: "x", Entries: 12, Assoc: 2, PageBytes: 4096, MissLatency: 30}, // 6 sets
		{Name: "x", Entries: 4, Assoc: 2, PageBytes: 4096, MissLatency: -1},  // negative walk
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
	free := TLBConfig{Name: "x", Entries: 4, Assoc: 2, PageBytes: 4096, MissLatency: 0}
	if err := free.Validate(); err != nil {
		t.Errorf("zero miss latency rejected: %v", err)
	}
}

func TestMissRate(t *testing.T) {
	s := CacheStats{}
	if s.MissRate() != 0 {
		t.Error("empty miss rate should be 0")
	}
	s = CacheStats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

// Property: after accessing addr, an immediate re-access of the same
// address always hits at L1 latency (temporal locality invariant).
func TestAccessThenHitProperty(t *testing.T) {
	mm := MainMemory{Latency: 18}
	c, err := NewCache(CacheConfig{Name: "p", SizeBytes: 4096, BlockBytes: 32, Assoc: 4, HitLatency: 3}, mm)
	if err != nil {
		t.Fatal(err)
	}
	f := func(addr uint32, write bool) bool {
		c.Access(addr, write)
		return c.Access(addr, false) == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: hits+misses == accesses for arbitrary access streams.
func TestStatsBalanceProperty(t *testing.T) {
	mm := MainMemory{Latency: 18}
	c, err := NewCache(CacheConfig{Name: "p", SizeBytes: 512, BlockBytes: 16, Assoc: 2, HitLatency: 1}, mm)
	if err != nil {
		t.Fatal(err)
	}
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(a, a%3 == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A small direct-mapped cache behaves like a trivial modulo map: two
// addresses with the same index but different tags always conflict.
func TestDirectMappedConflict(t *testing.T) {
	mm := MainMemory{Latency: 10}
	c, err := NewCache(CacheConfig{Name: "dm", SizeBytes: 128, BlockBytes: 32, Assoc: 1, HitLatency: 1}, mm)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, false)
	c.Access(128, false) // same set (4 sets × 32B), different tag
	if resident(c, 0) {
		t.Error("direct-mapped conflict should evict the first block")
	}
	if got := c.Stats().Misses; got != 2 {
		t.Errorf("misses = %d", got)
	}
}
