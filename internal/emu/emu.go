// Package emu is the SS32 functional emulator: it executes programs
// architecturally, one instruction at a time, with no timing model. It is
// the equivalent of SimpleScalar's sim-safe and serves three roles:
//
//   - the oracle that execution-driven timing simulation consults for true
//     values and branch outcomes,
//   - the correctness reference the pipeline's committed state is checked
//     against in tests,
//   - a fast way to run workloads when only architectural results matter.
package emu

import (
	"errors"
	"fmt"

	"reese/internal/isa"
	"reese/internal/program"
)

// ErrHalted is returned by Step once the program has executed halt.
var ErrHalted = errors.New("emu: machine halted")

// Machine is the architectural state of an SS32 processor.
type Machine struct {
	prog *program.Program
	dec  *program.DecodedText
	mem  *program.Memory

	pc    uint32
	regs  [isa.NumRegs]uint32
	fregs [isa.NumRegs]uint32 // FP register file (IEEE-754 bit patterns)

	halted bool
	icount uint64
	output []byte

	// Running digest of the committed-store sequence (see Digest).
	storeHash  uint64
	storeCount uint64
}

// New loads prog into a fresh machine. The stack pointer starts at
// program.StackTop.
func New(prog *program.Program) (*Machine, error) {
	mem, err := program.LoadMemory(prog)
	if err != nil {
		return nil, err
	}
	m := &Machine{prog: prog, dec: prog.Decoded(), mem: mem, pc: prog.Entry, storeHash: DigestSeed}
	m.regs[isa.RegSP] = program.StackTop
	return m, nil
}

// NewWithMemory wraps existing architectural state (used by the pipeline
// to share a memory image with its oracle).
func NewWithMemory(prog *program.Program, mem *program.Memory) *Machine {
	m := &Machine{prog: prog, dec: prog.Decoded(), mem: mem, pc: prog.Entry, storeHash: DigestSeed}
	m.regs[isa.RegSP] = program.StackTop
	return m
}

// PC returns the address of the next instruction to execute.
func (m *Machine) PC() uint32 { return m.pc }

// Reg returns the current value of register r.
func (m *Machine) Reg(r isa.Reg) uint32 { return m.regs[r] }

// SetReg writes register r (writes to r0 are discarded, as in hardware).
func (m *Machine) SetReg(r isa.Reg, v uint32) {
	if r != isa.RegZero {
		m.regs[r] = v
	}
}

// FReg returns the bit pattern of FP register r.
func (m *Machine) FReg(r isa.Reg) uint32 { return m.fregs[r] }

// SetFReg writes FP register r (no register is hardwired in the FP
// file).
func (m *Machine) SetFReg(r isa.Reg, v uint32) { m.fregs[r] = v }

// Mem exposes the architectural memory.
func (m *Machine) Mem() *program.Memory { return m.mem }

// Halted reports whether the program has executed halt.
func (m *Machine) Halted() bool { return m.halted }

// InstCount returns the number of instructions executed so far.
func (m *Machine) InstCount() uint64 { return m.icount }

// Output returns the bytes emitted by "out" instructions.
func (m *Machine) Output() []byte { return m.output }

// FRegFile returns a copy of the FP register file.
func (m *Machine) FRegFile() [isa.NumRegs]uint32 { return m.fregs }

// StoreHash returns the running hash over the store sequence (DigestSeed
// when no store has executed).
func (m *Machine) StoreHash() uint64 { return m.storeHash }

// StoreCount returns the number of stores executed.
func (m *Machine) StoreCount() uint64 { return m.storeCount }

// CloneInto deep-copies the machine's architectural state into dst
// (allocating when dst is nil, reusing dst's allocations otherwise),
// reading and writing through memory instead of the original's image.
// The caller supplies memory because machine forking shares
// page-granular memory snapshots separately from the scalar state (see
// pipeline.Checkpoint); program and decode tables are immutable and
// stay shared.
func (m *Machine) CloneInto(dst *Machine, memory *program.Memory) *Machine {
	if dst == nil {
		dst = new(Machine)
	}
	out := dst.output
	*dst = *m
	dst.mem = memory
	dst.output = append(out[:0], m.output...)
	return dst
}

// Trace describes one architecturally executed instruction. The pipeline
// simulator consumes traces as its oracle stream.
type Trace struct {
	PC   uint32
	Inst isa.Instruction

	// A and B are the source operand values read (zero when unused).
	A, B uint32
	// Result is the value written to the destination register, if any.
	Result uint32
	// HasResult reports whether a register was written.
	HasResult bool

	// NextPC is the address of the following instruction (the branch
	// target for taken control transfers).
	NextPC uint32
	// Taken reports, for control instructions, whether the transfer was
	// taken (always true for jumps).
	Taken bool

	// Addr and MemWidth describe the data-memory access, if any.
	Addr     uint32
	MemWidth uint32
	// StoreValue is the raw value a store writes (before truncation).
	StoreValue uint32

	Halt bool
}

// Step executes one instruction and returns its trace. After halt it
// returns ErrHalted.
func (m *Machine) Step() (Trace, error) {
	if m.halted {
		return Trace{}, ErrHalted
	}
	in, ok := m.dec.At(m.pc)
	if !ok {
		// Out-of-text or undecodable: take the uncached path for the
		// descriptive error.
		var err error
		in, err = m.prog.Fetch(m.pc)
		if err != nil {
			return Trace{}, fmt.Errorf("emu: at pc %#08x: %w", m.pc, err)
		}
	}
	tr := Trace{PC: m.pc, Inst: in, NextPC: m.pc + isa.WordBytes}
	rs1File, rs2File := in.Op.SourceFiles()
	if in.Op.ReadsRs1() {
		if rs1File == isa.FileFP {
			tr.A = m.fregs[in.Rs1]
		} else {
			tr.A = m.regs[in.Rs1]
		}
	}
	if in.Op.ReadsRs2() {
		if rs2File == isa.FileFP {
			tr.B = m.fregs[in.Rs2]
		} else {
			tr.B = m.regs[in.Rs2]
		}
	}

	switch {
	case in.Op == isa.OpHalt:
		m.halted = true
		tr.Halt = true
	case in.Op == isa.OpOut:
		m.output = append(m.output, byte(tr.A))
	case in.Op.IsLoad():
		tr.Addr = isa.EffectiveAddress(tr.A, in.Imm)
		tr.MemWidth = isa.MemWidth(in.Op)
		raw, err := m.mem.Read(tr.Addr, tr.MemWidth)
		if err != nil {
			return Trace{}, fmt.Errorf("emu: at pc %#08x (%s): %w", m.pc, in, err)
		}
		tr.Result = isa.ExtendLoad(in.Op, raw)
		tr.HasResult = true
		if in.Op.DestFile() == isa.FileFP {
			m.SetFReg(in.Rd, tr.Result)
		} else {
			m.SetReg(in.Rd, tr.Result)
		}
	case in.Op.IsStore():
		tr.Addr = isa.EffectiveAddress(tr.A, in.Imm)
		tr.MemWidth = isa.MemWidth(in.Op)
		tr.StoreValue = tr.B
		if err := m.mem.Write(tr.Addr, tr.MemWidth, tr.B); err != nil {
			return Trace{}, fmt.Errorf("emu: at pc %#08x (%s): %w", m.pc, in, err)
		}
		m.storeHash = MixStore(m.storeHash, tr.Addr, tr.MemWidth, tr.B)
		m.storeCount++
	case in.Op.IsBranch():
		tr.Taken = isa.BranchTaken(in.Op, tr.A, tr.B)
		if tr.Taken {
			tr.NextPC = in.BranchTarget(m.pc)
		}
	case in.Op.IsJump():
		tr.Taken = true
		switch in.Op {
		case isa.OpJ:
			tr.NextPC = in.BranchTarget(m.pc)
		case isa.OpJal:
			tr.NextPC = in.BranchTarget(m.pc)
			tr.Result = m.pc + isa.WordBytes
			tr.HasResult = true
			m.SetReg(isa.LinkReg, tr.Result)
		case isa.OpJr:
			tr.NextPC = tr.A
		case isa.OpJalr:
			tr.NextPC = tr.A
			tr.Result = m.pc + isa.WordBytes
			tr.HasResult = true
			m.SetReg(in.Rd, tr.Result)
		}
	case in.Op.IsFP():
		tr.Result = isa.EvalFP(in.Op, tr.A, tr.B)
		tr.HasResult = true
		if in.Op.DestFile() == isa.FileFP {
			m.SetFReg(in.Rd, tr.Result)
		} else {
			m.SetReg(in.Rd, tr.Result)
		}
	default:
		tr.Result = isa.EvalALU(in.Op, tr.A, tr.B, in.Imm)
		tr.HasResult = true
		m.SetReg(in.Rd, tr.Result)
	}

	m.pc = tr.NextPC
	m.icount++
	return tr, nil
}

// Run executes until halt or until maxInsts instructions have executed
// (0 means no limit). It returns the number of instructions executed.
func (m *Machine) Run(maxInsts uint64) (uint64, error) {
	start := m.icount
	for !m.halted {
		if maxInsts > 0 && m.icount-start >= maxInsts {
			break
		}
		if _, err := m.Step(); err != nil {
			return m.icount - start, err
		}
	}
	return m.icount - start, nil
}

// RegFile returns a copy of the register file.
func (m *Machine) RegFile() [isa.NumRegs]uint32 { return m.regs }
