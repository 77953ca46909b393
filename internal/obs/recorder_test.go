package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"reese/internal/isa"
)

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(4)
	if r.Cap() != 4 || r.Len() != 0 {
		t.Fatalf("fresh recorder cap=%d len=%d", r.Cap(), r.Len())
	}
	for i := 0; i < 10; i++ {
		r.Record(Event{Cycle: uint64(i), Seq: uint64(i), Kind: EvCommit})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() returned %d", len(evs))
	}
	// The ring keeps the newest 4, oldest first.
	for i, e := range evs {
		if want := uint64(6 + i); e.Cycle != want {
			t.Errorf("event %d cycle = %d, want %d", i, e.Cycle, want)
		}
	}
}

func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 3; i++ {
		r.Record(Event{Cycle: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Cycle != 0 || evs[2].Cycle != 2 {
		t.Fatalf("partial fill events: %+v", evs)
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
}

// TestChromeTracePairing feeds a hand-built lifecycle and checks the
// exported slices: fetch→dispatch becomes a fetch-queue slice,
// dispatch→issue a window slice, issue→writeback a slice on the right
// functional-unit lane.
func TestChromeTracePairing(t *testing.T) {
	r := NewRecorder(64)
	in := isa.Instruction{Op: isa.OpAdd, Rd: 3, Rs1: 1, Rs2: 2}
	r.Record(Event{Cycle: 1, Seq: 7, PC: 0x40, Inst: in, Kind: EvFetch})
	r.Record(Event{Cycle: 2, Seq: 7, PC: 0x40, Inst: in, Kind: EvDispatch})
	r.Record(Event{Cycle: 4, Seq: 7, PC: 0x40, Inst: in, Kind: EvIssue, FU: 1, Unit: 0})
	r.Record(Event{Cycle: 5, Seq: 7, PC: 0x40, Inst: in, Kind: EvWriteback, FU: 1, Unit: 0})
	r.Record(Event{Cycle: 6, Seq: 7, PC: 0x40, Inst: in, Kind: EvCommit})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("export is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   uint64  `json:"ts"`
			Dur  *uint64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type slice struct {
		ts, dur uint64
		tid     int
	}
	var slices []slice
	instants := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur == nil {
				t.Fatalf("complete event without dur: %+v", e)
			}
			slices = append(slices, slice{e.Ts, *e.Dur, e.Tid})
		case "i":
			instants++
		}
	}
	want := []slice{
		{1, 1, laneFetchQ},   // fetch 1 → dispatch 2
		{2, 2, laneWindow},   // dispatch 2 → issue 4
		{4, 1, fuLane(1, 0)}, // issue 4 → writeback 5 on int-alu 0
	}
	if len(slices) != len(want) {
		t.Fatalf("got %d slices, want %d: %+v", len(slices), len(want), slices)
	}
	for i, w := range want {
		if slices[i] != w {
			t.Errorf("slice %d = %+v, want %+v", i, slices[i], w)
		}
	}
	if instants != 1 { // the commit
		t.Errorf("instants = %d, want 1", instants)
	}
}

func TestEventKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := EventKind(0); k < NumEventKinds; k++ {
		s := k.String()
		if seen[s] || strings.HasPrefix(s, "event(") {
			t.Errorf("kind %d stringifies to %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(99).String() != "event(99)" {
		t.Error("unknown kind")
	}
}
