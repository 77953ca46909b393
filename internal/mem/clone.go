package mem

// Snapshot/fork support: deep copies of the timing hierarchy. The
// state comparison fork-based fault replay uses to decide that a trial
// machine has reconverged with the golden run is in readlog.go.

// CloneInto deep-copies the cache into dst (allocating when dst is nil).
// The copy keeps c's next level; Hierarchy.CloneInto rewires copied L1s
// to the copied L2. dst's line slice is reused when its capacity
// allows, so per-fork steady state allocates nothing.
func (c *Cache) CloneInto(dst *Cache) *Cache {
	if dst == nil {
		dst = &Cache{}
	}
	lines := dst.lines
	snap := dst.frec.snap
	*dst = *c
	dst.lines = append(lines[:0], c.lines...)
	dst.frec.snap = append(snap[:0], c.frec.snap...)
	dst.log = nil // logging does not survive a fork
	return dst
}

// CloneInto deep-copies the whole hierarchy into dst (allocating when
// dst is nil), preserving the internal wiring: L1I/L1D share the copied
// L2, while the L2 and the TLBs keep the source's own stateless main
// memory and page walk (sharing that interface value allocates nothing).
func (h *Hierarchy) CloneInto(dst *Hierarchy) *Hierarchy {
	if dst == nil {
		dst = &Hierarchy{}
	}
	dst.L2 = h.L2.CloneInto(dst.L2)
	dst.L1I = h.L1I.CloneInto(dst.L1I)
	dst.L1D = h.L1D.CloneInto(dst.L1D)
	dst.L1I.next, dst.L1D.next = dst.L2, dst.L2
	dst.ITLB = h.ITLB.CloneInto(dst.ITLB)
	dst.DTLB = h.DTLB.CloneInto(dst.DTLB)
	return dst
}

// ExtrapolateStats advances the cache counters as if the machine
// repeated its last cycle n more times: prev is the counter snapshot
// one cycle ago. Used by the hang fast-forward.
func (c *Cache) ExtrapolateStats(prev CacheStats, n uint64) {
	c.stats.Accesses += (c.stats.Accesses - prev.Accesses) * n
	c.stats.Hits += (c.stats.Hits - prev.Hits) * n
	c.stats.Misses += (c.stats.Misses - prev.Misses) * n
	c.stats.Writebacks += (c.stats.Writebacks - prev.Writebacks) * n
}
