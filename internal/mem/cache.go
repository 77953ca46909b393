// Package mem models the simulated memory hierarchy's timing: set-
// associative write-back caches with LRU replacement in front of a
// stateless fixed-latency main memory. A translation lookaside buffer
// is one more such cache, of page-sized blocks, whose next level is
// the page walk (SimpleScalar builds its TLBs with cache_create too).
// It matches the hierarchy the REESE paper configures on SimpleScalar
// (Table 1): split 32 KB 2-way L1 caches, a shared 512 KB 4-way L2,
// and TLBs.
//
// The hierarchy models timing only — data contents live in the
// architectural memory (internal/program.Memory). That mirrors
// SimpleScalar, where cache modules track tags, not data.
package mem

import "fmt"

// Level is anything that can service a memory access: a cache or main
// memory. Access returns the total latency in cycles to satisfy the
// access at this level (including any lower-level misses).
type Level interface {
	// Access services a read (isWrite=false) or write at addr.
	Access(addr uint32, isWrite bool) (latency int)
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name string
	// SizeBytes is total capacity. BlockBytes is the line size. Assoc is
	// the number of ways (1 = direct mapped).
	SizeBytes  uint32
	BlockBytes uint32
	Assoc      uint32
	// HitLatency is the access time in cycles on a hit.
	HitLatency int
	// ECC enables a SECDED code on this level: injected single-bit data
	// faults are corrected in place, double-bit faults are detected but
	// uncorrectable. Timing of the correction is not modeled (modern
	// SECDED corrects in the array access shadow).
	ECC bool
}

// Validate checks the configuration for consistency.
func (c CacheConfig) Validate() error {
	if c.BlockBytes == 0 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockBytes)
	}
	if c.Assoc == 0 {
		return fmt.Errorf("cache %s: zero associativity", c.Name)
	}
	if c.SizeBytes == 0 || c.SizeBytes%(c.BlockBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by block*assoc", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.BlockBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("cache %s: hit latency %d < 1", c.Name, c.HitLatency)
	}
	return nil
}

// CacheStats counts cache events.
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses/accesses (0 for no accesses).
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint32
	valid bool
	dirty bool
	// lru is a per-set logical clock; larger = more recently used.
	lru uint64
}

// Cache is a set-associative, write-back, write-allocate cache with true
// LRU replacement.
type Cache struct {
	cfg    CacheConfig
	next   Level
	sets   uint32
	lines  []line // sets × assoc, row-major
	clock  uint64
	stats  CacheStats
	shiftB uint32 // log2(block size)
	shiftS uint32 // log2(sets)
	maskS  uint32 // sets-1

	// Fault-injection residue (see inject.go). plane is the architectural
	// backing store data faults read and write; frec is the single armed
	// fault record a campaign trial may leave on this cache.
	plane WordPlane
	frec  faultRec

	// log, when non-nil, records the sets accesses miss in and the
	// lines they hit (readlog.go).
	log *ReadLog
}

var _ Level = (*Cache)(nil)

// NewCache builds a cache in front of next.
func NewCache(cfg CacheConfig, next Level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("cache %s: nil next level", cfg.Name)
	}
	return newCache(cfg, cfg.SizeBytes/(cfg.BlockBytes*cfg.Assoc), next), nil
}

// newCache builds a validated geometry of sets × cfg.Assoc lines of
// cfg.BlockBytes in front of next. cfg.SizeBytes is not read, so a TLB
// whose reach exceeds 32 bits builds from its entry count instead.
func newCache(cfg CacheConfig, sets uint32, next Level) *Cache {
	return &Cache{
		cfg:    cfg,
		next:   next,
		sets:   sets,
		lines:  make([]line, sets*cfg.Assoc),
		shiftB: log2(cfg.BlockBytes),
		shiftS: log2(sets),
		maskS:  sets - 1,
	}
}

func log2(v uint32) uint32 {
	var n uint32
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Stats returns a copy of the cache's counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Access implements Level. On a miss the block is fetched from the next
// level (write-allocate); a dirty eviction writes back to the next level,
// charged to this access (a simplification SimpleScalar also makes under
// its default blocking-cache timing).
func (c *Cache) Access(addr uint32, isWrite bool) int {
	c.stats.Accesses++
	c.clock++
	blockAddr := addr >> c.shiftB
	set := blockAddr & c.maskS
	tag := blockAddr >> c.shiftS
	base := set * c.cfg.Assoc

	// Hit?
	for i := uint32(0); i < c.cfg.Assoc; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == tag {
			c.stats.Hits++
			if c.log != nil {
				c.log.hit.set(base + i)
			}
			ln.lru = c.clock
			if isWrite {
				ln.dirty = true
			}
			return c.cfg.HitLatency
		}
	}

	// Miss: fill an empty way if one exists, else evict the LRU line.
	c.stats.Misses++
	if c.log != nil {
		c.log.missed.set(set)
	}
	victim := &c.lines[base]
	victimIdx := base
	for i := uint32(1); i < c.cfg.Assoc && victim.valid; i++ {
		ln := &c.lines[base+i]
		if !ln.valid || ln.lru < victim.lru {
			victim = ln
			victimIdx = base + i
		}
	}
	if c.frec.kind != frNone && c.frec.idx == victimIdx && victim.valid {
		c.settleFault(victim)
	}

	latency := c.cfg.HitLatency
	if victim.valid && victim.dirty {
		c.stats.Writebacks++
		// Reconstruct the victim's address for the write-back.
		victimAddr := (victim.tag<<c.shiftS | set) << c.shiftB
		latency += c.next.Access(victimAddr, true)
	}
	latency += c.next.Access(addr, false)

	victim.valid = true
	victim.tag = tag
	victim.dirty = isWrite
	victim.lru = c.clock
	return latency
}

// MainMemory is the bottom of the hierarchy: a stateless fixed-latency
// DRAM model, or a TLB's page walk.
type MainMemory struct {
	// Latency is the access time in cycles (SimpleScalar's default first-
	// chunk latency).
	Latency int
}

var _ Level = MainMemory{}

// Access implements Level.
func (m MainMemory) Access(uint32, bool) int { return m.Latency }
