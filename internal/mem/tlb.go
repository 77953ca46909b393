package mem

import "fmt"

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	Name string
	// Entries is the number of TLB entries. Assoc is the associativity
	// (Entries/Assoc sets). PageBytes is the page size.
	Entries   uint32
	Assoc     uint32
	PageBytes uint32
	// MissLatency is the page-walk cost in cycles on a TLB miss
	// (SimpleScalar's default is 30).
	MissLatency int
}

// Validate checks the configuration.
func (c TLBConfig) Validate() error {
	if c.PageBytes == 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("tlb %s: page size %d not a power of two", c.Name, c.PageBytes)
	}
	if c.Assoc == 0 || c.Entries == 0 || c.Entries%c.Assoc != 0 {
		return fmt.Errorf("tlb %s: bad entries/assoc %d/%d", c.Name, c.Entries, c.Assoc)
	}
	sets := c.Entries / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// TLB models translation timing: a hit is free (folded into the cache
// access), a miss adds MissLatency cycles.
type TLB struct {
	cfg   TLBConfig
	sets  uint32
	lines []line
	clock uint64
	stats CacheStats
	log   *ReadLog // see Cache.log
}

// NewTLB builds a TLB.
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Entries / cfg.Assoc
	return &TLB{cfg: cfg, sets: sets, lines: make([]line, cfg.Entries)}, nil
}

// Stats returns the TLB's counters.
func (t *TLB) Stats() CacheStats { return t.stats }

// Translate looks up the page containing addr, returning the added
// latency (0 on a hit, MissLatency on a miss).
func (t *TLB) Translate(addr uint32) int {
	t.stats.Accesses++
	t.clock++
	page := addr / t.cfg.PageBytes
	set := page & (t.sets - 1)
	tag := page / t.sets
	base := set * t.cfg.Assoc
	for i := uint32(0); i < t.cfg.Assoc; i++ {
		ln := &t.lines[base+i]
		if ln.valid && ln.tag == tag {
			t.stats.Hits++
			if t.log != nil {
				t.log.hit.set(base + i)
			}
			ln.lru = t.clock
			return 0
		}
	}
	t.stats.Misses++
	if t.log != nil {
		t.log.missed.set(set)
	}
	victim := &t.lines[base]
	for i := uint32(1); i < t.cfg.Assoc && victim.valid; i++ {
		ln := &t.lines[base+i]
		if !ln.valid || ln.lru < victim.lru {
			victim = ln
		}
	}
	*victim = line{tag: tag, valid: true, lru: t.clock}
	return t.cfg.MissLatency
}
