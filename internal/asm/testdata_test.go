package asm

import (
	"os"
	"path/filepath"
	"testing"

	"reese/internal/emu"
)

// TestExampleAssemblyPrograms assembles and runs every .s file shipped
// under examples/testdata, checking each halts and emits the expected
// output byte(s).
func TestExampleAssemblyPrograms(t *testing.T) {
	want := map[string][]byte{
		"demo.s": {83}, // low byte of 4179, the sum of the 16 generated Fibonacci terms
		"sort.s": {1},  // sorted correctly
		"gcd.s":  {21}, // gcd(1071, 462)
	}
	dir := filepath.Join("..", "..", "examples", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tested := 0
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".s" {
			continue
		}
		tested++
		name := ent.Name()
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			p, err := Assemble(name, string(src))
			if err != nil {
				t.Fatal(err)
			}
			m, err := emu.New(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(10_000_000); err != nil {
				t.Fatal(err)
			}
			if !m.Halted() {
				t.Fatal("did not halt")
			}
			if exp, ok := want[name]; ok {
				if string(m.Output()) != string(exp) {
					t.Errorf("output = %v, want %v", m.Output(), exp)
				}
			}
		})
	}
	if tested < 3 {
		t.Errorf("only %d example programs found", tested)
	}
}
