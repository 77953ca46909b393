package mem

import "fmt"

// HierarchyConfig assembles the full memory system the paper's Table 1
// describes: split L1 instruction/data caches in front of a shared L2,
// instruction and data TLBs, and main memory.
type HierarchyConfig struct {
	L1I, L1D, L2 CacheConfig
	ITLB, DTLB   TLBConfig
	// MemLatency is main-memory access time in cycles.
	MemLatency int
}

// Hierarchy is an instantiated memory system.
type Hierarchy struct {
	L1I, L1D, L2, ITLB, DTLB *Cache
}

// Validate checks every cache's and TLB's geometry and the main-memory
// latency: everything NewHierarchy needs to succeed.
func (cfg HierarchyConfig) Validate() error {
	if cfg.MemLatency < 1 {
		return fmt.Errorf("mem: main-memory latency %d < 1", cfg.MemLatency)
	}
	for _, c := range [...]CacheConfig{cfg.L2, cfg.L1I, cfg.L1D} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	for _, t := range [...]TLBConfig{cfg.ITLB, cfg.DTLB} {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{}
	var err error
	if h.L2, err = NewCache(cfg.L2, MainMemory{Latency: cfg.MemLatency}); err != nil {
		return nil, err
	}
	if h.L1I, err = NewCache(cfg.L1I, h.L2); err != nil {
		return nil, err
	}
	if h.L1D, err = NewCache(cfg.L1D, h.L2); err != nil {
		return nil, err
	}
	if h.ITLB, err = NewTLB(cfg.ITLB); err != nil {
		return nil, err
	}
	if h.DTLB, err = NewTLB(cfg.DTLB); err != nil {
		return nil, err
	}
	return h, nil
}

// SetWordPlane attaches the architectural backing store cache data
// faults operate on to every cache level. Must be re-pointed after a
// clone (the clone copies the old plane pointer).
func (h *Hierarchy) SetWordPlane(p WordPlane) {
	h.L1I.SetWordPlane(p)
	h.L1D.SetWordPlane(p)
	h.L2.SetWordPlane(p)
}

// FetchLatency returns the cycles to fetch the instruction block at addr
// (I-TLB plus I-cache).
func (h *Hierarchy) FetchLatency(addr uint32) int {
	return h.ITLB.Access(addr, false) + h.L1I.Access(addr, false)
}

// DataLatency returns the cycles for a data access at addr (D-TLB plus
// D-cache).
func (h *Hierarchy) DataLatency(addr uint32, isWrite bool) int {
	return h.DTLB.Access(addr, false) + h.L1D.Access(addr, isWrite)
}
