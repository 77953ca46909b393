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
	if c.MissLatency < 0 {
		return fmt.Errorf("tlb %s: miss latency %d < 0", c.Name, c.MissLatency)
	}
	return nil
}

// NewTLB builds a TLB: a read-only cache of page-sized blocks with a
// free hit (folded into the cache access) whose next level is the page
// walk, so a miss adds MissLatency cycles. Its reach (Entries ×
// PageBytes) may exceed 32 bits; the geometry is built from the set
// count and the page size alone.
func NewTLB(cfg TLBConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom := CacheConfig{Name: cfg.Name, BlockBytes: cfg.PageBytes, Assoc: cfg.Assoc}
	return newCache(geom, cfg.Entries/cfg.Assoc, MainMemory{Latency: cfg.MissLatency}), nil
}
