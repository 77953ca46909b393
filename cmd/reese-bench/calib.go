package main

import (
	"runtime"
	"sync"
	"time"
)

// Host calibration. A shared host changes speed by 15-30% over minutes
// (contention for cores, caches and memory bandwidth rather than stolen
// time), and every workload slows with it, so raw timings from runs an
// hour apart differ by more than any regression bound. A fixed kernel,
// timed just before and just after each part of a run, measures the
// host's speed at that moment, and the end-to-end metrics are scaled to
// a reference host on which the kernel takes calRefS. The kernel is this
// command's own code, not the repository's, so a change under test
// cannot move it; it runs in the parent between child processes, so it
// shares neither a heap nor a peak RSS with a workload.
const calRefS = 0.010

// calibrator holds the kernel's buffers, one set per core.
type calibrator struct {
	tbl      [][]uint64
	src, dst [][]byte
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		c.tbl = append(c.tbl, make([]uint64, 1<<15)) // 256 KiB: stays in cache
		c.src = append(c.src, make([]byte, 8<<20))   // 8 MiB: goes to memory
		c.dst = append(c.dst, make([]byte, 8<<20))
	}
	return c
}

// measure returns the kernel's time in seconds on every core at once:
// the median of five rounds of in-cache table updates plus the median
// of five rounds of large copies. A first round warms caches and pages
// and is not counted.
func (c *calibrator) measure() float64 {
	var upd, cp []float64
	for round := 0; round < 6; round++ {
		u := c.onEveryCore(c.update)
		m := c.onEveryCore(c.copy)
		if round > 0 {
			upd, cp = append(upd, u), append(cp, m)
		}
	}
	return median(upd) + median(cp)
}

func (c *calibrator) onEveryCore(f func(g int)) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := range c.tbl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(g)
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

func (c *calibrator) update(g int) {
	tbl := c.tbl[g]
	x := uint64(g + 1)
	for i := 0; i < 3_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		tbl[(x>>40)&uint64(len(tbl)-1)] += x
	}
}

func (c *calibrator) copy(g int) {
	for i := 0; i < 8; i++ {
		copy(c.dst[g], c.src[g])
		c.src[g][i] = byte(c.tbl[g][i])
	}
}
