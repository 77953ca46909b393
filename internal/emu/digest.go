package emu

import "reese/internal/isa"

// DigestSeed is the FNV-1a offset basis every running digest hash starts
// from; the pipeline's committed-store shadow hash must start from the
// same value to be comparable.
const DigestSeed uint64 = 1469598103934665603

const fnvPrime uint64 = 1099511628211

// mixWord folds one little-endian word into a running FNV-1a hash.
func mixWord(h uint64, w uint32) uint64 {
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(w >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// MixStore folds one committed store (address, width, raw value) into a
// running FNV-1a hash. Both the emulator and the pipeline's commit stage
// use this, so their store traces hash identically when the committed
// store sequences match.
func MixStore(h uint64, addr, width, value uint32) uint64 {
	h = mixWord(h, addr)
	h = mixWord(h, width)
	return mixWord(h, value)
}

// HashBytes returns the FNV-1a hash of bs, seeded with DigestSeed.
func HashBytes(bs []byte) uint64 {
	h := DigestSeed
	for _, b := range bs {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// Digest summarizes a run's architectural outcome: final register files,
// program output, and the full committed-store sequence (as a running
// hash, so no allocation grows with run length). Two runs committed the
// same architectural work iff their Digests are equal — it is a
// comparable struct, so == does the whole check. Fault campaigns compare
// an injected run's digest against the uninjected golden run's to
// classify the outcome.
type Digest struct {
	Committed  uint64
	Halted     bool
	Regs       [isa.NumRegs]uint32
	FRegs      [isa.NumRegs]uint32
	OutLen     uint64
	OutHash    uint64
	StoreCount uint64
	StoreHash  uint64
}

// Digest captures the machine's current architectural summary.
func (m *Machine) Digest() Digest {
	return Digest{
		Committed:  m.icount,
		Halted:     m.halted,
		Regs:       m.regs,
		FRegs:      m.fregs,
		OutLen:     uint64(len(m.output)),
		OutHash:    HashBytes(m.output),
		StoreCount: m.storeCount,
		StoreHash:  m.storeHash,
	}
}

// CorruptPC XORs mask into the fetch PC — a transient in the
// sequencer, outside REESE's sphere of replication (the fetch-pc fault
// site).
func (m *Machine) CorruptPC(mask uint32) { m.pc ^= mask }

// CorruptReg XORs mask into architectural register r. Writes to r0 are
// discarded, as in hardware (the regfile fault site).
func (m *Machine) CorruptReg(r uint8, mask uint32) {
	reg := isa.Reg(r % isa.NumRegs)
	if reg != isa.RegZero {
		m.regs[reg] ^= mask
	}
}

// DestReg reports which register file entry Step wrote tr.Result to,
// mirroring Step's write rules (jal links into LinkReg, FP ops and FP
// loads write the FP file). ok is false when no register was written.
// The pipeline's commit stage uses this to maintain a shadow register
// file from latched values.
func (tr *Trace) DestReg() (r isa.Reg, fp bool, ok bool) {
	if !tr.HasResult {
		return 0, false, false
	}
	op := tr.Inst.Op
	switch {
	case op == isa.OpJal:
		return isa.LinkReg, false, true
	case op == isa.OpJalr:
		return tr.Inst.Rd, false, true
	case op.IsLoad() || op.IsFP():
		return tr.Inst.Rd, op.DestFile() == isa.FileFP, true
	default:
		return tr.Inst.Rd, false, true
	}
}
