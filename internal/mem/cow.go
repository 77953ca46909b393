package mem

// Copy-on-write page images for machine-state snapshots.
//
// A fault campaign takes many snapshots of one golden run's memory; a
// naive snapshot copies the whole 8 MiB image each time, even though
// consecutive checkpoints differ by a handful of stores. PageImage
// shares unchanged pages between snapshots instead: the snapshot taker
// tracks which pages were written since the previous snapshot and only
// those are copied, so a chain of N checkpoints costs the program's
// non-zero pages plus the dirtied pages — not N full images.
//
// Most of a program's 8 MiB is never written and stays zero. Every
// all-zero page of every image, in every chain, is the one package-
// level zeroPage, so a base snapshot copies only the pages that hold
// something (a few dozen). Page identity still implies equal content,
// which is all a consumer comparing pages by address relies on.

import "bytes"

// Page granularity for copy-on-write snapshots.
const (
	// PageShift is log2 of the COW page size.
	PageShift = 12
	// PageSize is the COW page size in bytes (4 KiB).
	PageSize = 1 << PageShift
)

// zeroPage is the one shared all-zero page. It is snapshot state like
// any other page: nothing may write to it.
var zeroPage = make([]byte, PageSize)

// ZeroPage returns the shared all-zero page every image stores in place
// of a zero page of its own. Callers must treat it as read-only.
func ZeroPage() []byte { return zeroPage }

// NumPages returns how many COW pages cover an image of size bytes.
func NumPages(size int) int { return (size + PageSize - 1) / PageSize }

// PageImage is an immutable page-granular snapshot of a flat byte
// image. Pages are shared between successive snapshots of the same
// image; Materialize reassembles a private flat copy for a fork.
type PageImage struct {
	size  int
	pages [][]byte
}

// SnapshotPages captures image as a PageImage. dirty flags (one per
// page, from NumPages) mark pages written since prev was taken; those
// are copied fresh while clean pages are shared with prev. A nil prev
// (or a nil dirty, or a size change) takes every page — the chain's
// base snapshot. A taken page that is all zero becomes the shared
// zeroPage instead of a copy. The caller is responsible for clearing
// the dirty flags afterwards and for not mutating prev's pages.
func SnapshotPages(image []byte, dirty []bool, prev *PageImage) *PageImage {
	n := NumPages(len(image))
	img := &PageImage{size: len(image), pages: make([][]byte, n)}
	full := prev == nil || dirty == nil || prev.size != len(image) || len(dirty) != n
	for i := 0; i < n; i++ {
		if !full && !dirty[i] {
			img.pages[i] = prev.pages[i]
			continue
		}
		lo := i * PageSize
		hi := lo + PageSize
		if hi > len(image) {
			hi = len(image)
		}
		if src := image[lo:hi]; bytes.Equal(src, zeroPage[:len(src)]) {
			img.pages[i] = zeroPage[:len(src)]
		} else {
			img.pages[i] = append([]byte(nil), src...)
		}
	}
	return img
}

// Size returns the byte size of the imaged memory.
func (p *PageImage) Size() int { return p.size }

// NumPages returns the number of pages in the image.
func (p *PageImage) NumPages() int { return len(p.pages) }

// PageAt returns the i-th page's bytes. The slice is shared snapshot
// state: callers must treat it as read-only. Page identity (the address
// of the first byte) tells whether two snapshots share the page.
func (p *PageImage) PageAt(i int) []byte { return p.pages[i] }

// Materialize reassembles the snapshot into a fresh flat byte slice
// that the caller owns.
func (p *PageImage) Materialize() []byte {
	out := make([]byte, p.size)
	for i, pg := range p.pages {
		copy(out[i*PageSize:], pg)
	}
	return out
}

// SharedWith counts the pages this snapshot shares (by identity) with
// another — the quantity the COW scheme exists to maximise; tests use
// it to prove snapshots are not full copies.
func (p *PageImage) SharedWith(o *PageImage) int {
	if o == nil || len(p.pages) != len(o.pages) {
		return 0
	}
	n := 0
	for i := range p.pages {
		if len(p.pages[i]) > 0 && &p.pages[i][0] == &o.pages[i][0] {
			n++
		}
	}
	return n
}
