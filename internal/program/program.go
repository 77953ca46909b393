// Package program defines the executable image format shared by the
// assembler, the functional emulator, and the pipeline simulator: a text
// segment of SS32 instruction words, an initialised data segment, and an
// entry point. It plays the role of SimpleScalar's program loader.
package program

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"reese/internal/isa"
)

// Default segment layout. Text starts low; data sits above it; the stack
// grows down from StackTop. These are conventions of this toolchain, not
// of the ISA.
const (
	TextBase  uint32 = 0x0000_1000
	DataBase  uint32 = 0x0010_0000
	StackTop  uint32 = 0x007f_fff0
	MemoryTop uint32 = 0x0080_0000 // 8 MiB simulated physical memory
)

// Program is a loadable SS32 executable image.
type Program struct {
	// Name identifies the program in reports (e.g. the workload name).
	Name string
	// Text is the instruction stream, one encoded word per instruction,
	// loaded at TextBase.
	Text []uint32
	// Data is the initialised data segment, loaded at DataBase.
	Data []byte
	// Entry is the address of the first instruction executed.
	Entry uint32
	// Symbols maps label names to addresses (for diagnostics and tests).
	Symbols map[string]uint32

	// decoded caches the pre-decoded text segment. It is rebuilt lazily
	// whenever its length no longer matches Text, so Append during
	// program construction invalidates it naturally. Once a program is
	// being executed its Text must no longer change (see DecodedText).
	decoded atomic.Pointer[DecodedText]
}

// DecodedText is an immutable pre-decoded view of a program's text
// segment: one decoded instruction per text word, built once and shared
// by every emulator and pipeline running the program. Sharing is safe
// because a Program must not be mutated after it first executes — the
// builders (assembler, workload generators) finish the image before
// handing it off.
type DecodedText struct {
	insts []isa.Instruction
	ok    []bool
}

// At returns the decoded instruction at addr, with ok=false when addr is
// outside the text segment, unaligned, or holds an undecodable word.
func (d *DecodedText) At(addr uint32) (isa.Instruction, bool) {
	if addr < TextBase || addr%isa.WordBytes != 0 {
		return isa.Instruction{}, false
	}
	i := (addr - TextBase) / isa.WordBytes
	if i >= uint32(len(d.insts)) || !d.ok[i] {
		return isa.Instruction{}, false
	}
	return d.insts[i], true
}

// Len returns the number of text words covered.
func (d *DecodedText) Len() int { return len(d.insts) }

// Decoded returns the pre-decoded text segment, building it on first use
// (or after the text grew). Concurrent callers may race to build it, but
// every build produces identical contents, so the last store wins
// harmlessly; after the program is built once, this is a single atomic
// load per call.
func (p *Program) Decoded() *DecodedText {
	if d := p.decoded.Load(); d != nil && len(d.insts) == len(p.Text) {
		return d
	}
	d := &DecodedText{
		insts: make([]isa.Instruction, len(p.Text)),
		ok:    make([]bool, len(p.Text)),
	}
	for i, w := range p.Text {
		in, err := isa.Decode(w)
		if err == nil {
			d.insts[i] = in
			d.ok[i] = true
		}
	}
	p.decoded.Store(d)
	return d
}

// New returns an empty program with the default entry point.
func New(name string) *Program {
	return &Program{Name: name, Entry: TextBase, Symbols: make(map[string]uint32)}
}

// TextEnd returns the address one past the last instruction.
func (p *Program) TextEnd() uint32 {
	return TextBase + uint32(len(p.Text))*isa.WordBytes
}

// InText reports whether addr is a valid, word-aligned instruction
// address of this program.
func (p *Program) InText(addr uint32) bool {
	return addr >= TextBase && addr < p.TextEnd() && addr%isa.WordBytes == 0
}

// FetchWord returns the instruction word at addr.
func (p *Program) FetchWord(addr uint32) (uint32, error) {
	if !p.InText(addr) {
		return 0, fmt.Errorf("program %s: instruction fetch outside text: %#08x", p.Name, addr)
	}
	return p.Text[(addr-TextBase)/isa.WordBytes], nil
}

// Fetch decodes the instruction at addr, consulting the pre-decoded
// cache so repeated fetches (every simulated cycle) pay no decode cost.
func (p *Program) Fetch(addr uint32) (isa.Instruction, error) {
	if !p.InText(addr) {
		return isa.Instruction{}, fmt.Errorf("program %s: instruction fetch outside text: %#08x", p.Name, addr)
	}
	d := p.Decoded()
	i := (addr - TextBase) / isa.WordBytes
	if !d.ok[i] {
		// Undecodable word: take the slow path to produce the error.
		return isa.Decode(p.Text[i])
	}
	return d.insts[i], nil
}

// Append encodes and appends an instruction to the text segment,
// returning its address.
func (p *Program) Append(in isa.Instruction) (uint32, error) {
	w, err := isa.Encode(in)
	if err != nil {
		return 0, err
	}
	addr := p.TextEnd()
	p.Text = append(p.Text, w)
	return addr, nil
}

// Disassemble returns the text segment as "addr: instruction" lines.
func (p *Program) Disassemble() []string {
	lines := make([]string, 0, len(p.Text))
	for i, w := range p.Text {
		addr := TextBase + uint32(i)*isa.WordBytes
		in, err := isa.Decode(w)
		if err != nil {
			lines = append(lines, fmt.Sprintf("%#08x: .word %#08x", addr, w))
			continue
		}
		lines = append(lines, fmt.Sprintf("%#08x: %s", addr, in))
	}
	return lines
}

// Memory is a flat byte-addressed little-endian memory image with the
// program loaded. It is the architectural memory used by the functional
// emulator and as the backing store behind the simulated caches.
type Memory struct {
	bytes []byte
	// dirty, when non-nil, flags each dirtyPage-sized page written since
	// the last ClearDirty — the bookkeeping behind copy-on-write machine
	// snapshots (EnableDirtyTracking; see internal/mem's PageImage). The
	// nil check is the only cost paid by untracked memories.
	dirty []bool
}

// dirtyPageShift is log2 of the dirty-tracking page size. It must match
// mem.PageShift — internal/mem consumes the dirty flags but cannot be
// imported here without inverting the dependency between the packages.
const dirtyPageShift = 12

// NewMemory returns a blank memory image: MemoryTop zero bytes.
func NewMemory() *Memory { return &Memory{bytes: make([]byte, MemoryTop)} }

// LoadMemory builds a fresh memory image with p's text and data segments
// in place.
func LoadMemory(p *Program) (*Memory, error) {
	if p.TextEnd() > DataBase {
		return nil, fmt.Errorf("program %s: text segment (%d words) overflows into data base", p.Name, len(p.Text))
	}
	if uint32(len(p.Data)) > StackTop-DataBase {
		return nil, fmt.Errorf("program %s: data segment (%d bytes) overflows into stack", p.Name, len(p.Data))
	}
	m := NewMemory()
	for i, w := range p.Text {
		binary.LittleEndian.PutUint32(m.bytes[TextBase+uint32(i)*isa.WordBytes:], w)
	}
	copy(m.bytes[DataBase:], p.Data)
	return m, nil
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.bytes)) }

func (m *Memory) check(addr, width uint32) error {
	if addr >= m.Size() || addr+width > m.Size() || addr+width < addr {
		return fmt.Errorf("memory access out of range: addr %#08x width %d", addr, width)
	}
	return nil
}

// ReadWord reads the naturally-aligned 32-bit word containing addr.
// Unaligned word accesses are not architecturally supported; callers
// must align.
func (m *Memory) ReadWord(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		return 0, fmt.Errorf("unaligned word read at %#08x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.bytes[addr:]), nil
}

// WriteWord writes a 32-bit word at an aligned address.
func (m *Memory) WriteWord(addr, v uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("unaligned word write at %#08x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(m.bytes[addr:], v)
	if m.dirty != nil {
		m.dirty[addr>>dirtyPageShift] = true
	}
	return nil
}

// Read reads width bytes (1, 2, or 4) at addr, little-endian, requiring
// natural alignment. The value is returned in the low bits.
func (m *Memory) Read(addr, width uint32) (uint32, error) {
	if width != 1 && width != 2 && width != 4 {
		return 0, fmt.Errorf("bad access width %d", width)
	}
	if addr%width != 0 {
		return 0, fmt.Errorf("unaligned %d-byte read at %#08x", width, addr)
	}
	if err := m.check(addr, width); err != nil {
		return 0, err
	}
	switch width {
	case 1:
		return uint32(m.bytes[addr]), nil
	case 2:
		return uint32(binary.LittleEndian.Uint16(m.bytes[addr:])), nil
	default:
		return binary.LittleEndian.Uint32(m.bytes[addr:]), nil
	}
}

// Write writes the low width bytes of v at addr, little-endian, requiring
// natural alignment.
func (m *Memory) Write(addr, width, v uint32) error {
	if width != 1 && width != 2 && width != 4 {
		return fmt.Errorf("bad access width %d", width)
	}
	if addr%width != 0 {
		return fmt.Errorf("unaligned %d-byte write at %#08x", width, addr)
	}
	if err := m.check(addr, width); err != nil {
		return err
	}
	switch width {
	case 1:
		m.bytes[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.bytes[addr:], uint16(v))
	default:
		binary.LittleEndian.PutUint32(m.bytes[addr:], v)
	}
	if m.dirty != nil {
		// Accesses are naturally aligned, so a write never crosses a page.
		m.dirty[addr>>dirtyPageShift] = true
	}
	return nil
}

// EnableDirtyTracking starts page-granular write tracking: from now on
// every mutation flags its page in DirtyPages. Idempotent.
func (m *Memory) EnableDirtyTracking() {
	if m.dirty == nil {
		n := (len(m.bytes) + (1 << dirtyPageShift) - 1) >> dirtyPageShift
		m.dirty = make([]bool, n)
	}
}

// DirtyPages returns the live dirty-page flags (nil when tracking is
// off). Callers must not grow it; clearing entries is ClearDirty's job.
func (m *Memory) DirtyPages() []bool { return m.dirty }

// ClearDirty resets every dirty flag (typically right after a snapshot
// captured the flagged pages).
func (m *Memory) ClearDirty() {
	for i := range m.dirty {
		m.dirty[i] = false
	}
}

// Bytes exposes the live backing image for snapshotting. Callers must
// treat it as read-only; all mutation goes through Write/WriteWord so
// dirty tracking stays truthful.
func (m *Memory) Bytes() []byte { return m.bytes }

// Overwrite replaces the page starting at byte offset off with src
// in place, bypassing dirty tracking — forking restores a snapshot
// image and then clears the flags, so the restore itself must not
// pollute them. The memory's size never changes.
func (m *Memory) Overwrite(off int, src []byte) {
	copy(m.bytes[off:], src)
}

// Clone returns an independent copy of the memory image. Used to give the
// pipeline and the oracle emulator separate architectural states.
func (m *Memory) Clone() *Memory {
	b := make([]byte, len(m.bytes))
	copy(b, m.bytes)
	return &Memory{bytes: b}
}

// Equal reports whether two memory images have identical contents.
func (m *Memory) Equal(o *Memory) bool {
	if len(m.bytes) != len(o.bytes) {
		return false
	}
	for i := range m.bytes {
		if m.bytes[i] != o.bytes[i] {
			return false
		}
	}
	return true
}
