package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"reese/internal/config"
	"reese/internal/emu"
	"reese/internal/fault"
	"reese/internal/fu"
	"reese/internal/obs"
	"reese/internal/workload"
)

// Regenerate with:
//
//	go test ./internal/pipeline/ -run TestSchemesGolden -update-schemes-golden
//
// only after an intentional change to pipeline timing or to a
// redundancy scheme's behaviour; a refactor must leave the file as is.
var updateSchemesGolden = flag.Bool("update-schemes-golden", false, "rewrite testdata/schemes.golden.json")

// schemeMachines is one machine per redundancy scheme and variant: the
// baseline, the R-stream Queue with its RESO, partial re-execution and
// queue-size variants, duplicate-at-dispatch, and the wrong-path model
// under each of the three schemes.
func schemeMachines() []config.Machine {
	s := config.Starting()
	return []config.Machine{
		s,
		s.WithReese(),
		s.WithReese().WithRESO(),
		s.WithReese().WithPartialReexec(4),
		s.WithReese().WithRSQ(4),
		s.WithDupDispatch(),
		s.WithWrongPath(),
		s.WithReese().WithWrongPath(),
		s.WithDupDispatch().WithWrongPath(),
	}
}

// stuckMachines are the schemeMachines indices that also get a
// stuck-unit run: the full-coverage detectors, REESE with and without
// RESO and duplicate-at-dispatch.
var stuckMachines = map[int]bool{1: true, 2: true, 5: true}

// schemeRun is one pinned simulation: the full Result, the committed
// architectural digest, and (for the fault runs) hashes of the text
// event trace and the flight-recorder export.
type schemeRun struct {
	Name      string
	Result    Result
	Digest    emu.Digest
	TraceSHA  string `json:",omitempty"`
	FlightSHA string `json:",omitempty"`
}

// TestSchemesGolden pins every redundancy scheme's observable behaviour
// on gcc and vortex at 20k instructions: a clean run, a periodic-fault
// run (detection and recovery), a stuck-unit run on the detecting
// schemes (the permanent-error stop), and a fetch-PC wedge under the
// hang fast-forward (HangPeriod and the extrapolated counters).
func TestSchemesGolden(t *testing.T) {
	const insts = 20_000
	var runs []schemeRun
	for _, name := range []string{"gcc", "vortex"} {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		prog := spec.MustBuild(0)
		for mi, cfg := range schemeMachines() {
			run := func(kind string, inj fault.Injector, setup func(*CPU), traced bool) {
				t.Helper()
				cpu, err := New(cfg, prog, inj)
				if err != nil {
					t.Fatal(err)
				}
				if setup != nil {
					setup(cpu)
				}
				var text bytes.Buffer
				var rec *obs.Recorder
				if traced {
					cpu.SetTrace(&text)
					rec = obs.NewRecorder(4096)
					cpu.SetRecorder(rec)
				}
				res, err := cpu.Run(insts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, cfg.Name, kind, err)
				}
				r := schemeRun{Name: name + "/" + cfg.Name + "/" + kind, Result: res, Digest: cpu.CommitDigest()}
				if traced {
					var flight bytes.Buffer
					if err := rec.WriteChromeTrace(&flight); err != nil {
						t.Fatal(err)
					}
					r.TraceSHA = sha(text.Bytes())
					r.FlightSHA = sha(flight.Bytes())
				}
				runs = append(runs, r)
			}
			run("clean", nil, nil, false)
			run("periodic", &fault.Periodic{Interval: 997, Start: 300}, nil, true)
			if stuckMachines[mi] {
				run("stuck", fault.StuckUnit{Kind: uint8(fu.IntALU), Unit: 0, Bit: 5}, nil, false)
			}
			run("hang", &fault.AtStruct{Struct: fault.StructFetchPC, Seq: 5_000, Bit: 30}, func(c *CPU) {
				c.SetHangLimit(20_000)
				c.SetHangFastForward(true)
			}, false)
		}
	}

	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range runs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		if i < len(runs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")

	golden := filepath.Join("testdata", "schemes.golden.json")
	if *updateSchemesGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs, %d bytes)", golden, len(runs), buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-schemes-golden)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	var wantRuns []schemeRun
	if err := json.Unmarshal(want, &wantRuns); err != nil {
		t.Fatal(err)
	}
	if len(wantRuns) != len(runs) {
		t.Fatalf("golden has %d runs, got %d", len(wantRuns), len(runs))
	}
	for i := range runs {
		got, _ := json.Marshal(runs[i])
		exp, _ := json.Marshal(wantRuns[i])
		if !bytes.Equal(got, exp) {
			t.Errorf("%s drifted from golden:\n got %s\nwant %s", runs[i].Name, got, exp)
		}
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
