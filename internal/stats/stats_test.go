package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1)
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram")
	}
	for _, v := range []uint64{5, 10, 15} {
		h.Add(v)
	}
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Mean() != 10 {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.Min() != 5 || h.Max() != 15 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramZeroWidthDefaultsToOne(t *testing.T) {
	h := NewHistogram(0)
	h.Add(7)
	if h.Count() != 1 {
		t.Error("zero bucket width should not panic")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1)
	for i := uint64(1); i <= 100; i++ {
		h.Add(i)
	}
	if p := h.Percentile(50); p < 50 || p > 52 {
		t.Errorf("p50 = %d", p)
	}
	if p := h.Percentile(95); p < 95 || p > 97 {
		t.Errorf("p95 = %d", p)
	}
	if p := h.Percentile(100); p < 100 || p > 101 {
		t.Errorf("p100 = %d", p)
	}
	empty := NewHistogram(1)
	if empty.Percentile(50) != 0 {
		t.Error("empty percentile")
	}
}

// Property: mean lies within [min, max] for any non-empty sample.
func TestHistogramMeanBounds(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram(4)
		for _, v := range vals {
			h.Add(uint64(v))
		}
		m := h.Mean()
		return m >= float64(h.Min())-1e-9 && m <= float64(h.Max())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// CloneInto refills a used histogram in place: the copy forgets dst's
// own observations, equals the source, and shares no buckets with it.
func TestHistogramCloneInto(t *testing.T) {
	src, dst := NewHistogram(2), NewHistogram(5)
	for v := uint64(0); v < 40; v += 3 {
		src.Add(v)
		dst.Add(v * 7)
		dst.Add(v * 11)
	}
	if got := src.CloneInto(dst); got != dst {
		t.Fatal("CloneInto did not refill dst")
	}
	fresh := src.CloneInto(nil)
	for _, h := range []*Histogram{dst, fresh} {
		if !reflect.DeepEqual(h.Buckets(), src.Buckets()) || h.Count() != src.Count() ||
			h.Mean() != src.Mean() || h.Min() != src.Min() || h.Max() != src.Max() || h.Percentile(90) != src.Percentile(90) {
			t.Errorf("copy %v differs from source %v", h.Buckets(), src.Buckets())
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { src.CloneInto(dst) }); allocs != 0 {
		t.Errorf("CloneInto a grown histogram allocates %.0f", allocs)
	}
	src.Add(1000)
	if dst.Count() == src.Count() || dst.Max() == 1000 {
		t.Error("adding to the source changed the copy")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22")
	s := tb.String()
	if !strings.Contains(s, "My Title") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// title, header, rule, 2 rows
	if len(lines) != 5 {
		t.Errorf("lines = %d:\n%s", len(lines), s)
	}
	// Columns aligned: "alpha" and "b" rows have value at same offset.
	h := lines[1]
	idx := strings.Index(h, "value")
	if idx < 0 {
		t.Fatal("no value header")
	}
	if lines[3][idx] != '1' || lines[4][idx] != '2' {
		t.Errorf("misaligned:\n%s", s)
	}
}

func TestTableRowTruncationAndPadding(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1", "2", "3") // extra cell dropped
	tb.AddRow("x")           // short row padded
	s := tb.String()
	if strings.Contains(s, "3") {
		t.Error("extra cell should be dropped")
	}
	if !strings.Contains(s, "x") {
		t.Error("short row lost")
	}
}

func TestAddRowf(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRowf(3.14159)
	if !strings.Contains(tb.String(), "3.142") {
		t.Errorf("float formatting:\n%s", tb.String())
	}
	tb2 := NewTable("", "v", "w")
	tb2.AddRowf("s", 42)
	if !strings.Contains(tb2.String(), "42") {
		t.Error("int formatting")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("ratio")
	}
	if Ratio(6, 0) != 0 {
		t.Error("zero denominator")
	}
}

func TestPercentDelta(t *testing.T) {
	if got := PercentDelta(2.0, 1.7); math.Abs(got-15) > 1e-9 {
		t.Errorf("delta = %v", got)
	}
	if PercentDelta(0, 5) != 0 {
		t.Error("zero base")
	}
	if got := PercentDelta(1.0, 1.2); got >= 0 {
		t.Error("faster should be negative")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean")
	}
}
