package stats

// CloneInto deep-copies the histogram into dst (allocating when dst is
// nil) and returns it (snapshot support: forked machines carry their
// own detection-latency distributions). dst's bucket map is cleared and
// refilled, so it keeps the room it has grown.
func (h *Histogram) CloneInto(dst *Histogram) *Histogram {
	if dst == nil {
		dst = &Histogram{}
	}
	buckets := dst.buckets
	*dst = *h
	if buckets == nil {
		buckets = make(map[uint64]uint64, len(h.buckets))
	}
	clear(buckets)
	for k, v := range h.buckets {
		buckets[k] = v
	}
	dst.buckets = buckets
	return dst
}

// ExtrapolateFrom scales the histogram as if the observations recorded
// since prev repeated n more times (hang fast-forward over a periodic
// detection/recovery livelock: each period re-records the same latency
// values, so buckets, count and sum grow linearly while min and max are
// already saturated by the first occurrence).
func (h *Histogram) ExtrapolateFrom(prev *Histogram, n uint64) {
	if n == 0 || h.count == prev.count {
		return
	}
	for k, v := range h.buckets {
		h.buckets[k] = v + (v-prev.buckets[k])*n
	}
	h.count += (h.count - prev.count) * n
	h.sum += (h.sum - prev.sum) * n
}
