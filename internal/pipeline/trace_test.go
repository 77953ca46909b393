package pipeline

import (
	"strings"
	"testing"

	"reese/internal/config"
	"reese/internal/fault"
)

func TestPipelineTrace(t *testing.T) {
	var buf strings.Builder
	cpu, err := New(config.Starting().WithReese(), mustProg(t, loopProgram(5)), &fault.AtSeq{Seq: 10, Bit: 2})
	if err != nil {
		t.Fatal(err)
	}
	cpu.SetTrace(&buf)
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"FETCH", "DISPATCH", "ISSUE", "WRITEBACK", "ENTER-RSQ", "DISPATCH-R", "ISSUE-R", "VERIFY", "COMMIT", "FAULT", "MISMATCH", "RECOVERY"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s event", want)
		}
	}
	// Event ordering sanity for the first instruction: fetch before
	// dispatch before issue.
	iF := strings.Index(out, "FETCH")
	iD := strings.Index(out, "DISPATCH")
	iI := strings.Index(out, "ISSUE")
	if !(iF < iD && iD < iI) {
		t.Error("event order broken")
	}
}
