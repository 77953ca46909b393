// Package config defines machine configurations: the paper's Table 1
// "starting configuration" and the per-figure variants of the evaluation
// (larger RUU/LSQ, wider datapath, extra memory ports, spare functional
// units).
package config

import (
	"fmt"

	"reese/internal/fu"
	"reese/internal/mem"
)

// Machine is a complete processor configuration.
type Machine struct {
	Name string

	// FetchQueueSize is the instruction fetch queue depth (Table 1: 16).
	FetchQueueSize int
	// Width is the maximum instructions per cycle for the in-order
	// pipeline stages: fetch, dispatch, and commit (Table 1: "max IPC
	// for other pipeline stages" = 8).
	Width int
	// IssueWidth is the maximum instructions issued to functional units
	// per cycle (Table 1 sets 8, like the other stages). P-stream and
	// R-stream instructions compete for these slots.
	IssueWidth int
	// RUUSize is the register update unit capacity (Table 1: 16).
	RUUSize int
	// LSQSize is the load/store queue capacity (Table 1: 8, always half
	// the RUU in the paper's sweeps).
	LSQSize int

	// FU is the functional-unit complement.
	FU fu.Config

	// Memory is the cache hierarchy.
	Memory mem.HierarchyConfig

	// Predictor selects the branch predictor kind. The zero value is
	// PredGshare (the paper's Table 1 choice).
	Predictor PredictorKind
	// GshareBits sizes the predictor tables (and history for gshare).
	GshareBits uint32
	// BTBSets and BTBAssoc size the branch target buffer.
	BTBSets, BTBAssoc uint32
	// RASSize is the return-address stack depth.
	RASSize int

	// ModelWrongPath, when set, fetches and executes down mispredicted
	// paths (consuming fetch/dispatch/issue bandwidth, window slots,
	// functional units, and I-cache bandwidth) and squashes them at
	// resolution — instead of the default stall-until-resolve
	// approximation. Off by default: the paper-figure configurations
	// use the stall model.
	ModelWrongPath bool

	// Reese holds the REESE-specific knobs; Reese.Enabled selects the
	// REESE machine over the baseline.
	Reese ReeseConfig
}

// PredictorKind selects a branch-predictor implementation.
type PredictorKind uint8

// Predictor kinds.
const (
	// PredGshare is McFarling's gshare (Table 1's choice).
	PredGshare PredictorKind = iota
	// PredBimodal is a PC-indexed 2-bit counter table.
	PredBimodal
	// PredCombining combines gshare and bimodal with a chooser.
	PredCombining
	// PredStaticTaken always predicts taken.
	PredStaticTaken
	// PredStaticNotTaken always predicts not taken.
	PredStaticNotTaken
)

func (k PredictorKind) String() string {
	switch k {
	case PredGshare:
		return "gshare"
	case PredBimodal:
		return "bimodal"
	case PredCombining:
		return "combining"
	case PredStaticTaken:
		return "static-taken"
	case PredStaticNotTaken:
		return "static-nottaken"
	default:
		return "unknown"
	}
}

// MarshalText encodes the kind as its name, so a Machine serialised to
// JSON (the reese-serve API) says "gshare" rather than 0.
func (k PredictorKind) MarshalText() ([]byte, error) {
	if k > PredStaticNotTaken {
		return nil, fmt.Errorf("config: unknown predictor kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText accepts the names String/MarshalText produce.
func (k *PredictorKind) UnmarshalText(text []byte) error {
	for cand := PredGshare; cand <= PredStaticNotTaken; cand++ {
		if string(text) == cand.String() {
			*k = cand
			return nil
		}
	}
	return fmt.Errorf("config: unknown predictor kind %q", text)
}

// RedundancyMode selects how redundant execution is organised.
type RedundancyMode uint8

// Redundancy modes.
const (
	// ModeRSQ is the paper's contribution: redundant copies issue from
	// the R-stream Queue carrying their operands and results, free of
	// data and control dependencies (§4.2-4.4).
	ModeRSQ RedundancyMode = iota
	// ModeDupDispatch is the cited comparison scheme (Franklin [24]):
	// every instruction is duplicated at the dynamic scheduler. The
	// copy inherits the original's register dependencies, so it
	// schedules no better than the original — the behaviour REESE's
	// dependency-free R stream improves on (§4.4).
	ModeDupDispatch
)

func (m RedundancyMode) String() string {
	if m == ModeDupDispatch {
		return "dup-dispatch"
	}
	return "rsq"
}

// MarshalText encodes the mode as its name ("rsq" / "dup-dispatch").
func (m RedundancyMode) MarshalText() ([]byte, error) {
	if m > ModeDupDispatch {
		return nil, fmt.Errorf("config: unknown redundancy mode %d", uint8(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText accepts the names String/MarshalText produce.
func (m *RedundancyMode) UnmarshalText(text []byte) error {
	switch string(text) {
	case "rsq":
		*m = ModeRSQ
	case "dup-dispatch":
		*m = ModeDupDispatch
	default:
		return fmt.Errorf("config: unknown redundancy mode %q", text)
	}
	return nil
}

// ReeseConfig are the knobs of the paper's mechanism.
type ReeseConfig struct {
	// Enabled turns on redundant execution with the R-stream Queue.
	Enabled bool
	// Mode selects the redundancy organisation (default ModeRSQ).
	Mode RedundancyMode
	// RSQSize is the R-stream Queue capacity (paper §4.3: initially 32).
	RSQSize int
	// HighWater is the RSQ occupancy at which R-stream instructions get
	// scheduling priority over P-stream instructions, implementing the
	// paper's counter-based overflow avoidance. 0 means "size - width".
	HighWater int
	// ReexecuteEvery re-executes only one in every N instructions
	// (paper §7 future work). 1 (or 0) means every instruction.
	ReexecuteEvery int
	// RESO runs the R stream as recomputation with shifted operands
	// (the paper's §3 reference [15]), extending coverage to permanent
	// functional-unit faults.
	RESO bool
}

// HasRSQ reports whether the machine has an R-stream Queue: REESE
// enabled in RSQ mode (duplicate-at-dispatch has no queue).
func (m Machine) HasRSQ() bool {
	return m.Reese.Enabled && m.Reese.Mode != ModeDupDispatch
}

// Validate checks the configuration for consistency.
func (m Machine) Validate() error {
	if m.FetchQueueSize < 1 {
		return fmt.Errorf("config %s: fetch queue size %d", m.Name, m.FetchQueueSize)
	}
	if m.Width < 1 {
		return fmt.Errorf("config %s: width %d", m.Name, m.Width)
	}
	if m.IssueWidth < 1 {
		return fmt.Errorf("config %s: issue width %d", m.Name, m.IssueWidth)
	}
	if m.RUUSize < 2 {
		return fmt.Errorf("config %s: RUU size %d", m.Name, m.RUUSize)
	}
	if m.LSQSize < 1 {
		return fmt.Errorf("config %s: LSQ size %d", m.Name, m.LSQSize)
	}
	if err := m.FU.Validate(); err != nil {
		return fmt.Errorf("config %s: %w", m.Name, err)
	}
	if m.GshareBits == 0 {
		return fmt.Errorf("config %s: gshare bits 0", m.Name)
	}
	if m.Reese.Enabled {
		if m.Reese.RSQSize < 1 {
			return fmt.Errorf("config %s: RSQ size %d", m.Name, m.Reese.RSQSize)
		}
		if m.Reese.ReexecuteEvery < 0 {
			return fmt.Errorf("config %s: re-execute every %d", m.Name, m.Reese.ReexecuteEvery)
		}
	}
	return nil
}

// Starting returns the paper's Table 1 starting configuration (baseline:
// REESE disabled).
func Starting() Machine {
	return Machine{
		Name:           "table1-starting",
		FetchQueueSize: 16,
		Width:          8,
		IssueWidth:     8,
		RUUSize:        16,
		LSQSize:        8,
		// Table 1: 4 IntAdd, 1 IntM/D, "Same for FP".
		FU: fu.Config{IntALU: 4, IntMult: 1, MemPort: 2, FPALU: 4, FPMult: 1},
		Memory: mem.HierarchyConfig{
			// 32 KB 2-way L1 data cache, 2-cycle hit (Table 1).
			L1D: mem.CacheConfig{Name: "dl1", SizeBytes: 32 * 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2},
			// 32 KB 2-way L1 instruction cache, 2-cycle hit (Table 1).
			L1I: mem.CacheConfig{Name: "il1", SizeBytes: 32 * 1024, BlockBytes: 32, Assoc: 2, HitLatency: 2},
			// 512 KB 4-way shared L2, 12-cycle hit (Table 1).
			L2: mem.CacheConfig{Name: "ul2", SizeBytes: 512 * 1024, BlockBytes: 64, Assoc: 4, HitLatency: 12},
			// SimpleScalar 2.0 defaults for TLBs and memory.
			ITLB:       mem.TLBConfig{Name: "itlb", Entries: 16, Assoc: 4, PageBytes: 4096, MissLatency: 30},
			DTLB:       mem.TLBConfig{Name: "dtlb", Entries: 32, Assoc: 4, PageBytes: 4096, MissLatency: 30},
			MemLatency: 18,
		},
		GshareBits: 12,
		BTBSets:    512,
		BTBAssoc:   4,
		RASSize:    8,
		Reese: ReeseConfig{
			Enabled:        false,
			RSQSize:        32,
			ReexecuteEvery: 1,
		},
	}
}

// WithName returns a copy renamed to name.
func (m Machine) WithName(name string) Machine {
	m.Name = name
	return m
}

// WithReese returns a copy with REESE enabled.
func (m Machine) WithReese() Machine {
	m.Reese.Enabled = true
	m.Name += "+reese"
	return m
}

// WithSpares returns a copy with spare functional units added (only
// meaningful for REESE machines, but legal on any).
func (m Machine) WithSpares(alus, mults int) Machine {
	m.FU = m.FU.AddSpares(alus, mults)
	if alus > 0 {
		m.Name += fmt.Sprintf("+%dALU", alus)
	}
	if mults > 0 {
		m.Name += fmt.Sprintf("+%dMult", mults)
	}
	return m
}

// WithRUU returns a copy with the RUU resized; the LSQ follows at half
// the RUU size, as in all the paper's sweeps.
func (m Machine) WithRUU(size int) Machine {
	m.RUUSize = size
	m.LSQSize = size / 2
	m.Name += fmt.Sprintf("+ruu%d", size)
	return m
}

// WithWidth returns a copy with the datapath width changed (Figure 4
// doubles it from 8 to 16); the issue width scales with it.
func (m Machine) WithWidth(w int) Machine {
	m.Width = w
	m.IssueWidth = w
	m.Name += fmt.Sprintf("+w%d", w)
	return m
}

// WithMemPorts returns a copy with the memory-port count changed
// (Figure 5 doubles it from 2 to 4).
func (m Machine) WithMemPorts(n int) Machine {
	m.FU.MemPort = n
	m.Name += fmt.Sprintf("+mp%d", n)
	return m
}

// WithFUs returns a copy with the functional-unit complement replaced
// (Figure 7's "more FUs" points double the whole complement).
func (m Machine) WithFUs(c fu.Config) Machine {
	m.FU = c
	m.Name += fmt.Sprintf("+fu(%d,%d,%d)", c.IntALU, c.IntMult, c.MemPort)
	return m
}

// WithDupDispatch returns a copy running the duplicate-at-the-scheduler
// comparison scheme instead of the R-stream Queue.
func (m Machine) WithDupDispatch() Machine {
	m.Reese.Enabled = true
	m.Reese.Mode = ModeDupDispatch
	m.Name += "+dupdispatch"
	return m
}

// WithWrongPath returns a copy that models wrong-path execution after
// branch mispredictions (ablation; the default is the stall model).
func (m Machine) WithWrongPath() Machine {
	m.ModelWrongPath = true
	m.Name += "+wrongpath"
	return m
}

// WithPredictor returns a copy using a different branch predictor
// (ablation; the paper uses gshare throughout).
func (m Machine) WithPredictor(k PredictorKind) Machine {
	m.Predictor = k
	m.Name += "+" + k.String()
	return m
}

// WithRSQHighWater returns a copy with the R-priority threshold changed
// (ablation on the paper's counter logic, §4.3).
func (m Machine) WithRSQHighWater(hw int) Machine {
	m.Reese.HighWater = hw
	m.Name += fmt.Sprintf("+hw%d", hw)
	return m
}

// WithRSQ returns a copy with the R-stream Queue resized (ablation).
func (m Machine) WithRSQ(size int) Machine {
	m.Reese.RSQSize = size
	m.Name += fmt.Sprintf("+rsq%d", size)
	return m
}

// WithRESO returns a copy whose R stream recomputes with shifted
// operands (detects permanent functional-unit faults; reference [15]).
func (m Machine) WithRESO() Machine {
	m.Reese.RESO = true
	m.Name += "+reso"
	return m
}

// WithPartialReexec returns a copy re-executing one in every n
// instructions (paper §7 future work; n=1 is full coverage).
func (m Machine) WithPartialReexec(n int) Machine {
	m.Reese.ReexecuteEvery = n
	m.Name += fmt.Sprintf("+partial%d", n)
	return m
}
