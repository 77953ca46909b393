package obs

// The flight recorder: a fixed-size ring buffer of per-instruction
// lifecycle events. Recording is a bounds-checked array store — no
// allocation, no formatting — so it can stay armed on long runs and be
// dumped only when something interesting happens (a comparator hit, a
// stall plateau, an operator request). The dump renders as Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing, with one
// lane per pipeline structure and per functional unit.

import (
	"fmt"
	"io"
	"strconv"

	"reese/internal/isa"
)

// EventKind labels a pipeline lifecycle event. Package pipeline's
// line-oriented trace and the flight recorder share this vocabulary.
type EventKind uint8

// Pipeline lifecycle events.
const (
	EvFetch EventKind = iota
	EvDispatch
	EvIssue
	EvWriteback
	EvEnterRSQ
	EvDispatchR
	EvIssueR
	EvVerify
	EvCommit
	EvMispredict
	EvFaultInjected
	EvMismatch
	EvRecovery
	EvDivergence

	// NumEventKinds sizes per-kind arrays.
	NumEventKinds
)

var eventNames = [NumEventKinds]string{
	EvFetch:         "FETCH",
	EvDispatch:      "DISPATCH",
	EvIssue:         "ISSUE",
	EvWriteback:     "WRITEBACK",
	EvEnterRSQ:      "ENTER-RSQ",
	EvDispatchR:     "DISPATCH-R",
	EvIssueR:        "ISSUE-R",
	EvVerify:        "VERIFY",
	EvCommit:        "COMMIT",
	EvMispredict:    "MISPREDICT",
	EvFaultInjected: "FAULT",
	EvMismatch:      "MISMATCH",
	EvRecovery:      "RECOVERY",
	EvDivergence:    "DIVERGENCE",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one recorded lifecycle point. It is pointer-free and fixed
// size so the ring buffer is a flat array the GC never scans into.
type Event struct {
	Cycle uint64
	Seq   uint64 // RUU sequence number (0 before dispatch assigns one)
	PC    uint32
	Inst  isa.Instruction
	Kind  EventKind
	// FU is the functional-unit kind + 1 (0 = no unit involved); Unit
	// is the instance index within the kind.
	FU   uint8
	Unit int16
}

// Recorder is the ring buffer. Not safe for concurrent use — it
// belongs to one CPU's cycle loop.
type Recorder struct {
	buf     []Event
	next    int
	n       int
	dropped uint64
	// scratch is WriteChromeTrace's event-emission buffer, kept on the
	// recorder so a pooled recorder dumping hundreds of rings reuses one
	// allocation. The dump copies it into the caller's writer before
	// returning, so it never aliases an exported blob.
	scratch []byte
}

// NewRecorder allocates a recorder holding the last capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Record appends an event, overwriting the oldest when full. O(1), no
// allocation.
func (r *Recorder) Record(e Event) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.dropped++
	}
}

// Reset empties the ring for reuse without reallocating or zeroing the
// backing array (stale entries are unreachable once n is 0). The triage
// pass recycles one recorder per pooled replay worker instead of
// allocating a fresh ring per escape.
func (r *Recorder) Reset() {
	r.next, r.n, r.dropped = 0, 0, 0
}

// Len reports how many events are held.
func (r *Recorder) Len() int { return r.n }

// Cap reports the ring capacity.
func (r *Recorder) Cap() int { return len(r.buf) }

// Dropped reports how many events were overwritten by wraparound.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Events returns the held events oldest-first (a copy).
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	r.Scan(func(e Event) { out = append(out, e) })
	return out
}

// Scan calls fn for each held event, oldest-first, without copying the
// ring. The exporter and the triage pass iterate large rings hundreds of
// times per campaign; a copy per pass is measurable.
func (r *Recorder) Scan(fn func(Event)) {
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		j := start + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		fn(r.buf[j])
	}
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

// Trace lanes (Chrome trace "thread" ids). Functional-unit lanes start
// at fuLaneBase and encode kind and unit so every physical unit gets
// its own row.
const (
	laneEvents   = 0 // instants: mispredicts, faults, mismatches, recoveries
	laneFetchQ   = 1 // fetch → dispatch
	laneWindow   = 2 // dispatch → issue (operand wait + scheduling)
	laneRSQ      = 3 // RSQ entry → R-dispatch (recheck wait)
	laneCommit   = 4 // commit instants
	fuLaneBase   = 16
	fuLaneStride = 16 // units per kind lane block
)

// fuKindNames mirrors internal/fu's kind order; obs stays decoupled
// from that package so the recorder can be tested standalone.
var fuKindNames = [...]string{"int-alu", "int-mult", "mem-port", "fp-alu", "fp-mult"}

func fuLane(fu uint8, unit int16) int {
	return fuLaneBase + int(fu-1)*fuLaneStride + int(unit)
}

func fuLaneName(fu uint8, unit int16) string {
	kind := "fu"
	if int(fu-1) < len(fuKindNames) {
		kind = fuKindNames[fu-1]
	}
	return fmt.Sprintf("%s %d", kind, unit)
}

// appendJSONString appends s as a quoted JSON string. Event names are
// mnemonics and lane labels (plain ASCII), so the escape cases almost
// never fire, but the writer stays correct for arbitrary input.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendEscaped(b, s)
	return append(b, '"')
}

// appendEscaped appends s with JSON string escaping, no quotes.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, fmt.Sprintf(`\u%04x`, c)...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// seqState is the per-instruction pairing state the exporter threads
// between lifecycle events to turn points into duration slices.
type seqState struct {
	fetch, dispatch, issue, rsqEnter, rIssue uint64
	haveFetch, haveDispatch, haveIssue       bool
	haveRSQEnter, haveRIssue                 bool
	fu                                       uint8
	unit                                     int16
}

// WriteChromeTrace renders the held events as Chrome trace-event JSON
// ("JSON Object Format"), loadable in Perfetto. One lane per pipeline
// structure (fetch queue, window, RSQ), one per functional unit, plus
// instant lanes for commits and notable events. Cycle stamps map to
// microseconds so a 1-cycle stage shows as 1µs.
//
// The JSON is emitted by hand, compact, into a grown byte slice: the
// exporter sits on the fault-triage hot path (hundreds of full-ring
// dumps per campaign), where encoding/json's reflection, per-event
// maps, and indenting dominated the whole triage pass. Disassembly and
// PC strings repeat across every lifecycle event of an instruction, so
// both are memoized per dump.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	// Lane names, indexed by tid; "" means the lane never appeared.
	// A flat array keeps the per-writeback-event name registration to an
	// index test (the Sprintf only runs once per distinct unit).
	var lanes [fuLaneBase + len(fuKindNames)*fuLaneStride]string
	lanes[laneEvents] = "events"
	lanes[laneFetchQ] = "fetch-queue"
	lanes[laneWindow] = "window"
	lanes[laneCommit] = "commit"
	// Sequence numbers in a held ring are dense: each event carries one
	// of at most r.n distinct seqs drawn from a contiguous stretch of the
	// program. Pair by direct indexing into one zeroed slab — a map here
	// costs a hashed lookup per event, which dominated the dump on the
	// triage hot path. A map fallback covers pathological spans (a marker
	// with a far-off seq).
	var minSeq, maxSeq uint64
	empty := true
	r.Scan(func(e Event) {
		if empty {
			minSeq, maxSeq, empty = e.Seq, e.Seq, false
			return
		}
		if e.Seq < minSeq {
			minSeq = e.Seq
		}
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
	})
	var st func(seq uint64) *seqState
	if span := maxSeq - minSeq + 1; !empty && span <= uint64(2*len(r.buf)+16) {
		slab := make([]seqState, span)
		st = func(seq uint64) *seqState { return &slab[seq-minSeq] }
	} else {
		states := make(map[uint64]*seqState, 1024)
		var slab []seqState
		st = func(seq uint64) *seqState {
			if s, ok := states[seq]; ok {
				return s
			}
			if len(slab) == cap(slab) {
				slab = make([]seqState, 0, 512)
			}
			slab = append(slab, seqState{})
			s := &slab[len(slab)-1]
			states[seq] = s
			return s
		}
	}

	names := make(map[isa.Instruction]string, 256)
	pcs := make(map[uint32]string, 256)

	// Every event entry is emitted comma-first; the lane-metadata block
	// written ahead of them is never empty, so the array stays valid.
	if cap(r.scratch) < 96*r.n {
		r.scratch = make([]byte, 0, 96*r.n)
	}
	evbuf := r.scratch[:0]
	slice := func(name, suffix string, lane int, from, to uint64, seq uint64, pc string) {
		evbuf = append(evbuf, `,{"name":`...)
		evbuf = appendName(evbuf, "", name, suffix)
		evbuf = append(evbuf, `,"ph":"X","ts":`...)
		evbuf = strconv.AppendUint(evbuf, from, 10)
		evbuf = append(evbuf, `,"dur":`...)
		evbuf = strconv.AppendUint(evbuf, to-from, 10)
		evbuf = append(evbuf, `,"pid":1,"tid":`...)
		evbuf = strconv.AppendInt(evbuf, int64(lane), 10)
		evbuf = appendArgs(evbuf, seq, pc)
	}
	instant := func(prefix, name string, lane int, at uint64, seq uint64, pc string) {
		evbuf = append(evbuf, `,{"name":`...)
		evbuf = appendName(evbuf, prefix, name, "")
		evbuf = append(evbuf, `,"ph":"i","ts":`...)
		evbuf = strconv.AppendUint(evbuf, at, 10)
		evbuf = append(evbuf, `,"pid":1,"tid":`...)
		evbuf = strconv.AppendInt(evbuf, int64(lane), 10)
		evbuf = append(evbuf, `,"s":"t"`...)
		evbuf = appendArgs(evbuf, seq, pc)
	}

	r.Scan(func(e Event) {
		name, ok := names[e.Inst]
		if !ok {
			name = e.Inst.String()
			names[e.Inst] = name
		}
		pc, ok := pcs[e.PC]
		if !ok {
			pc = fmt.Sprintf("%#08x", e.PC)
			pcs[e.PC] = pc
		}
		switch e.Kind {
		case EvFetch:
			s := st(e.Seq)
			s.fetch, s.haveFetch = e.Cycle, true
		case EvDispatch:
			s := st(e.Seq)
			if s.haveFetch {
				slice(name, "", laneFetchQ, s.fetch, e.Cycle, e.Seq, pc)
			}
			s.dispatch, s.haveDispatch = e.Cycle, true
		case EvIssue:
			s := st(e.Seq)
			if s.haveDispatch {
				slice(name, "", laneWindow, s.dispatch, e.Cycle, e.Seq, pc)
			}
			s.issue, s.haveIssue = e.Cycle, true
			s.fu, s.unit = e.FU, e.Unit
		case EvWriteback:
			s := st(e.Seq)
			if s.haveIssue && s.fu > 0 {
				lane := fuLane(s.fu, s.unit)
				if lanes[lane] == "" {
					lanes[lane] = fuLaneName(s.fu, s.unit)
				}
				slice(name, "", lane, s.issue, e.Cycle, e.Seq, pc)
			}
		case EvEnterRSQ:
			s := st(e.Seq)
			s.rsqEnter, s.haveRSQEnter = e.Cycle, true
		case EvDispatchR:
			s := st(e.Seq)
			if s.haveRSQEnter {
				lanes[laneRSQ] = "rsq"
				slice(name, " (rsq wait)", laneRSQ, s.rsqEnter, e.Cycle, e.Seq, pc)
			}
		case EvIssueR:
			s := st(e.Seq)
			s.rIssue, s.haveRIssue = e.Cycle, true
			s.fu, s.unit = e.FU, e.Unit
		case EvVerify:
			s := st(e.Seq)
			if s.haveRIssue && s.fu > 0 {
				lane := fuLane(s.fu, s.unit)
				if lanes[lane] == "" {
					lanes[lane] = fuLaneName(s.fu, s.unit)
				}
				slice(name, " (R)", lane, s.rIssue, e.Cycle, e.Seq, pc)
			}
		case EvCommit:
			instant("", name, laneCommit, e.Cycle, e.Seq, pc)
		default:
			instant(e.Kind.String()+" ", name, laneEvents, e.Cycle, e.Seq, pc)
		}
	})
	r.scratch = evbuf // keep any growth for the next dump

	// Lane-name metadata, smallest tid first for deterministic output.
	head := make([]byte, 0, 1024)
	head = append(head, `{"traceEvents":[`...)
	first := true
	for tid := range lanes {
		name := lanes[tid]
		if name == "" {
			continue
		}
		if !first {
			head = append(head, ',')
		}
		first = false
		head = append(head, `{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":`...)
		head = strconv.AppendInt(head, int64(tid), 10)
		head = append(head, `,"args":{"name":`...)
		head = appendJSONString(head, name)
		head = append(head, `}}`...)
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(evbuf); err != nil {
		return err
	}
	// otherData surfaces the recorder's own health alongside the events:
	// a trace that wrapped is a partial record, and the only honest place
	// to say so is inside the artifact itself.
	tail := make([]byte, 0, 160)
	tail = append(tail, `],"displayTimeUnit":"ms","otherData":{"recorder_capacity":`...)
	tail = strconv.AppendInt(tail, int64(r.Cap()), 10)
	tail = append(tail, `,"recorder_dropped":`...)
	tail = strconv.AppendUint(tail, r.Dropped(), 10)
	tail = append(tail, `,"recorder_events":`...)
	tail = strconv.AppendInt(tail, int64(r.Len()), 10)
	tail = append(tail, `,"wrapped":`...)
	tail = strconv.AppendBool(tail, r.Dropped() > 0)
	tail = append(tail, "}}\n"...)
	_, err := w.Write(tail)
	return err
}

// appendName quotes prefix+name+suffix as one JSON string.
func appendName(b []byte, prefix, name, suffix string) []byte {
	b = append(b, '"')
	if prefix != "" {
		b = appendEscaped(b, prefix)
	}
	b = appendEscaped(b, name)
	if suffix != "" {
		b = appendEscaped(b, suffix)
	}
	return append(b, '"')
}

// appendArgs closes an event entry with its args object.
func appendArgs(b []byte, seq uint64, pc string) []byte {
	b = append(b, `,"args":{"pc":"`...)
	b = append(b, pc...)
	b = append(b, `","seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	return append(b, `}}`...)
}
