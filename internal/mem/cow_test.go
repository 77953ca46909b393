package mem

import (
	"bytes"
	"testing"
)

// isZeroPage reports whether page i of img is the shared zero page.
func isZeroPage(img *PageImage, i int) bool {
	return &img.PageAt(i)[0] == &ZeroPage()[0]
}

// Zero pages of unrelated images are one page; non-zero pages are
// private copies that never alias the source image.
func TestSnapshotSharesZeroPage(t *testing.T) {
	a := make([]byte, 8*PageSize)
	b := make([]byte, 8*PageSize)
	a[1*PageSize+7] = 1
	b[5*PageSize] = 2
	ia := SnapshotPages(a, nil, nil)
	ib := SnapshotPages(b, nil, nil)
	if !bytes.Equal(ia.Materialize(), a) || !bytes.Equal(ib.Materialize(), b) {
		t.Error("Materialize does not round-trip")
	}
	if got := ia.SharedWith(ib); got != 6 {
		t.Errorf("unrelated images share %d pages, want the 6 zero pages both hold", got)
	}
	for i := 0; i < ia.NumPages(); i++ {
		if want := i != 1; isZeroPage(ia, i) != want {
			t.Errorf("page %d: shared zero page = %v, want %v", i, !want, want)
		}
	}
	if &ia.PageAt(1)[0] == &a[PageSize] {
		t.Error("non-zero page aliases the live image instead of being copied")
	}
	a[1*PageSize+7] = 9 // the snapshot must not see later writes
	if ia.PageAt(1)[7] != 1 {
		t.Error("snapshot page changed with the live image")
	}
	if !bytes.Equal(ZeroPage(), make([]byte, PageSize)) {
		t.Error("the shared zero page was written")
	}
}

// A page the run dirties is retaken: zeroed pages become the shared
// zero page, pages written non-zero get a fresh copy, clean pages stay
// shared with the previous snapshot.
func TestSnapshotChainZeroPage(t *testing.T) {
	image := make([]byte, 4*PageSize)
	image[0] = 1
	image[2*PageSize] = 3
	base := SnapshotPages(image, nil, nil)
	if isZeroPage(base, 0) || isZeroPage(base, 2) || !isZeroPage(base, 1) || !isZeroPage(base, 3) {
		t.Fatal("base snapshot: wrong pages shared with the zero page")
	}

	image[0] = 0          // page 0 zeroed
	image[PageSize+5] = 4 // page 1 written non-zero
	dirty := []bool{true, true, false, false}
	next := SnapshotPages(image, dirty, base)
	if !isZeroPage(next, 0) {
		t.Error("page zeroed between snapshots is not the shared zero page")
	}
	if isZeroPage(next, 1) || &next.PageAt(1)[0] == &base.PageAt(1)[0] {
		t.Error("page written non-zero was not copied")
	}
	if &next.PageAt(2)[0] != &base.PageAt(2)[0] || !isZeroPage(next, 3) {
		t.Error("clean pages are not shared with the previous snapshot")
	}
	if !bytes.Equal(next.Materialize(), image) {
		t.Error("Materialize does not round-trip the chained snapshot")
	}
	if !bytes.Equal(base.Materialize()[:PageSize], append([]byte{1}, make([]byte, PageSize-1)...)) {
		t.Error("retaking a page changed the previous snapshot")
	}
}

// An image whose size is not a page multiple ends in a short page; a
// short zero tail still shares the zero page's storage.
func TestSnapshotShortZeroTail(t *testing.T) {
	image := make([]byte, PageSize+100)
	img := SnapshotPages(image, nil, nil)
	if len(img.PageAt(1)) != 100 || !isZeroPage(img, 1) {
		t.Errorf("short tail page: len %d, shared %v", len(img.PageAt(1)), isZeroPage(img, 1))
	}
	if !bytes.Equal(img.Materialize(), image) {
		t.Error("Materialize does not round-trip")
	}
}
