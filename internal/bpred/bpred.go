// Package bpred implements the branch predictors used by the REESE
// paper's simulator: gshare (McFarling, combining global history with the
// branch address), a classic bimodal table, a static predictor, a branch
// target buffer, and a return-address stack. The paper's Table 1 selects
// gshare.
package bpred

import "fmt"

// Predictor predicts conditional branch directions and learns from
// resolved outcomes.
//
// Predictors with global history split learning in two: ShiftHistory is
// called at fetch time with the speculative outcome (the front end
// repairs its history as soon as a misprediction is discovered, so the
// history register tracks the fetch stream, as in SimpleScalar's
// speculative-update mode), while TrainAt adjusts the pattern tables at
// branch resolution, under the history snapshot the prediction used.
type Predictor interface {
	// CloneInto deep-copies the predictor into dst and returns it,
	// reusing dst's tables when dst is the same kind (used when forking
	// a machine from a checkpoint). A nil dst, or one of another kind,
	// is replaced by a new predictor. Read logging does not survive the
	// copy.
	CloneInto(dst Predictor) Predictor
	// StateEqual reports whether o is the same predictor kind with the
	// same history and configuration and equal pattern-table entries
	// wherever rs marks a read — the convergence test fork-based fault
	// replay relies on. A nil rs compares every entry. Predictors that
	// log no reads (not ReadLoggers) always compare exactly.
	StateEqual(o Predictor, rs *ReadSet) bool
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint32) bool
	// ShiftHistory advances the speculative global history (no-op for
	// history-free predictors).
	ShiftHistory(taken bool)
	// Snapshot captures the history state a prediction is about to use,
	// so resolution can train the same table entry (0 for history-free
	// predictors).
	Snapshot() uint32
	// Restore rewinds the speculative history to an earlier snapshot
	// (used when squashing a wrong path).
	Restore(snapshot uint32)
	// TrainAt adjusts the pattern-table entry that the prediction made
	// under snapshot used, with the resolved outcome.
	TrainAt(pc uint32, snapshot uint32, taken bool)
	// Name identifies the predictor in reports.
	Name() string
}

// counter is a 2-bit saturating counter; values 2,3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Gshare is McFarling's gshare predictor: a table of 2-bit counters
// indexed by (global history XOR branch PC).
type Gshare struct {
	table   []counter
	history uint32
	bits    uint32
	mask    uint32
	// readLog, when non-nil, collects the table entries Predict consults
	// (see ReadLogger in readset.go).
	readLog *ReadSet
}

var _ Predictor = (*Gshare)(nil)

// NewGshare builds a gshare predictor with 2^bits counters and a history
// register of the same width.
func NewGshare(bits uint32) (*Gshare, error) {
	if bits == 0 || bits > 24 {
		return nil, fmt.Errorf("bpred: gshare bits %d out of range [1,24]", bits)
	}
	g := &Gshare{bits: bits, mask: 1<<bits - 1}
	g.table = make([]counter, 1<<bits)
	// Initialise to weakly taken (2), SimpleScalar's convention.
	for i := range g.table {
		g.table[i] = 2
	}
	return g, nil
}

func (g *Gshare) index(pc uint32) uint32 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint32) bool {
	i := g.index(pc)
	if g.readLog != nil {
		g.readLog.set(i)
	}
	return g.table[i].taken()
}

// ShiftHistory implements Predictor: it shifts the outcome into the
// global history register.
func (g *Gshare) ShiftHistory(taken bool) {
	g.history = (g.history << 1) & g.mask
	if taken {
		g.history |= 1
	}
}

// Snapshot implements Predictor: it returns the current history
// register, to be carried with the branch until resolution.
func (g *Gshare) Snapshot() uint32 { return g.history }

// Restore implements Predictor.
func (g *Gshare) Restore(snapshot uint32) { g.history = snapshot & g.mask }

// TrainAt implements Predictor: it adjusts the 2-bit counter that a
// prediction made under snapshot consulted — the same entry, even
// though the speculative history has moved on since.
func (g *Gshare) TrainAt(pc uint32, snapshot uint32, taken bool) {
	i := ((pc >> 2) ^ snapshot) & g.mask
	g.table[i] = g.table[i].update(taken)
}

// Name implements Predictor.
func (g *Gshare) Name() string { return fmt.Sprintf("gshare:%d", g.bits) }

// CloneInto implements Predictor.
func (g *Gshare) CloneInto(dst Predictor) Predictor {
	d, _ := dst.(*Gshare)
	if d == nil {
		d = &Gshare{}
	}
	table := d.table
	*d = *g
	d.table = append(table[:0], g.table...)
	d.readLog = nil
	return d
}

// StateEqual implements Predictor.
func (g *Gshare) StateEqual(o Predictor, rs *ReadSet) bool {
	og, ok := o.(*Gshare)
	if !ok || og.history != g.history || og.bits != g.bits || len(og.table) != len(g.table) {
		return false
	}
	return countersEqualOn(g.table, og.table, rs)
}

// Bimodal is a simple PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter
	mask  uint32
	bits  uint32
	// readLog, when non-nil, collects the table entries Predict consults
	// (see ReadLogger in readset.go).
	readLog *ReadSet
}

var _ Predictor = (*Bimodal)(nil)

// NewBimodal builds a bimodal predictor with 2^bits counters.
func NewBimodal(bits uint32) (*Bimodal, error) {
	if bits == 0 || bits > 24 {
		return nil, fmt.Errorf("bpred: bimodal bits %d out of range [1,24]", bits)
	}
	b := &Bimodal{bits: bits, mask: 1<<bits - 1, table: make([]counter, 1<<bits)}
	for i := range b.table {
		b.table[i] = 2
	}
	return b, nil
}

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint32) bool {
	i := (pc >> 2) & b.mask
	if b.readLog != nil {
		b.readLog.set(i)
	}
	return b.table[i].taken()
}

// ShiftHistory implements Predictor (bimodal keeps no history).
func (b *Bimodal) ShiftHistory(taken bool) {}

// Snapshot implements Predictor (bimodal keeps no history).
func (b *Bimodal) Snapshot() uint32 { return 0 }

// Restore implements Predictor (no history).
func (b *Bimodal) Restore(snapshot uint32) {}

// TrainAt implements Predictor; the snapshot is irrelevant.
func (b *Bimodal) TrainAt(pc uint32, snapshot uint32, taken bool) {
	i := (pc >> 2) & b.mask
	b.table[i] = b.table[i].update(taken)
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("bimodal:%d", b.bits) }

// CloneInto implements Predictor.
func (b *Bimodal) CloneInto(dst Predictor) Predictor {
	d, _ := dst.(*Bimodal)
	if d == nil {
		d = &Bimodal{}
	}
	table := d.table
	*d = *b
	d.table = append(table[:0], b.table...)
	d.readLog = nil
	return d
}

// StateEqual implements Predictor.
func (b *Bimodal) StateEqual(o Predictor, rs *ReadSet) bool {
	ob, ok := o.(*Bimodal)
	if !ok || ob.bits != b.bits || len(ob.table) != len(b.table) {
		return false
	}
	return countersEqualOn(b.table, ob.table, rs)
}

// Static predicts a fixed direction (taken models "backward taken" well
// enough for loop code; not-taken is the trivial baseline).
type Static struct{ Taken bool }

var _ Predictor = (*Static)(nil)

// Predict implements Predictor.
func (s *Static) Predict(pc uint32) bool { return s.Taken }

// ShiftHistory implements Predictor (no state).
func (s *Static) ShiftHistory(taken bool) {}

// Snapshot implements Predictor (no state).
func (s *Static) Snapshot() uint32 { return 0 }

// Restore implements Predictor (no state).
func (s *Static) Restore(snapshot uint32) {}

// TrainAt implements Predictor (no state).
func (s *Static) TrainAt(pc uint32, snapshot uint32, taken bool) {}

// CloneInto implements Predictor (stateless: a value copy suffices).
func (s *Static) CloneInto(dst Predictor) Predictor {
	d, _ := dst.(*Static)
	if d == nil {
		d = &Static{}
	}
	*d = *s
	return d
}

// StateEqual implements Predictor (no tables: rs is ignored).
func (s *Static) StateEqual(o Predictor, _ *ReadSet) bool {
	os, ok := o.(*Static)
	return ok && os.Taken == s.Taken
}

// Name implements Predictor.
func (s *Static) Name() string {
	if s.Taken {
		return "static:taken"
	}
	return "static:nottaken"
}

// Combining is McFarling's combining predictor: a chooser table selects
// per-branch between two component predictors.
type Combining struct {
	p1, p2  Predictor
	chooser []counter // >=2 selects p1
	mask    uint32
}

var _ Predictor = (*Combining)(nil)

// NewCombining builds a combining predictor over p1 and p2 with a
// 2^bits-entry chooser.
func NewCombining(p1, p2 Predictor, bits uint32) (*Combining, error) {
	if bits == 0 || bits > 24 {
		return nil, fmt.Errorf("bpred: chooser bits %d out of range [1,24]", bits)
	}
	c := &Combining{p1: p1, p2: p2, mask: 1<<bits - 1, chooser: make([]counter, 1<<bits)}
	for i := range c.chooser {
		c.chooser[i] = 2
	}
	return c, nil
}

// Predict implements Predictor.
func (c *Combining) Predict(pc uint32) bool {
	if c.chooser[(pc>>2)&c.mask].taken() {
		return c.p1.Predict(pc)
	}
	return c.p2.Predict(pc)
}

// ShiftHistory implements Predictor: both components advance.
func (c *Combining) ShiftHistory(taken bool) {
	c.p1.ShiftHistory(taken)
	c.p2.ShiftHistory(taken)
}

// Snapshot implements Predictor. Both components see the same global
// outcome stream, so one snapshot serves both; it is taken from the
// first component (components of differing history widths truncate it
// themselves via their index masks).
func (c *Combining) Snapshot() uint32 { return c.p1.Snapshot() }

// Restore implements Predictor.
func (c *Combining) Restore(snapshot uint32) {
	c.p1.Restore(snapshot)
	c.p2.Restore(snapshot)
}

// TrainAt implements Predictor: the chooser is trained towards
// whichever component was right, then both components train the entries
// their predictions used.
func (c *Combining) TrainAt(pc uint32, snapshot uint32, taken bool) {
	i := (pc >> 2) & c.mask
	r1 := c.p1.Predict(pc) == taken
	r2 := c.p2.Predict(pc) == taken
	if r1 != r2 {
		c.chooser[i] = c.chooser[i].update(r1)
	}
	c.p1.TrainAt(pc, snapshot, taken)
	c.p2.TrainAt(pc, snapshot, taken)
}

// Name implements Predictor.
func (c *Combining) Name() string {
	return fmt.Sprintf("comb(%s,%s)", c.p1.Name(), c.p2.Name())
}

// CloneInto implements Predictor: components copy recursively into
// dst's components.
func (c *Combining) CloneInto(dst Predictor) Predictor {
	d, _ := dst.(*Combining)
	if d == nil {
		d = &Combining{}
	}
	p1, p2, chooser := d.p1, d.p2, d.chooser
	*d = *c
	d.p1 = c.p1.CloneInto(p1)
	d.p2 = c.p2.CloneInto(p2)
	d.chooser = append(chooser[:0], c.chooser...)
	return d
}

// StateEqual implements Predictor. A combining predictor logs no
// reads, so rs is ignored and every table compares exactly.
func (c *Combining) StateEqual(o Predictor, _ *ReadSet) bool {
	oc, ok := o.(*Combining)
	if !ok || len(oc.chooser) != len(c.chooser) {
		return false
	}
	return countersEqualOn(c.chooser, oc.chooser, nil) &&
		c.p1.StateEqual(oc.p1, nil) && c.p2.StateEqual(oc.p2, nil)
}
