package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustAppend(t *testing.T, jl *journal, rec journalRecord) {
	t.Helper()
	if err := jl.append(rec); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayStates walks one of each lifecycle through the
// journal and checks the replayed final states.
func TestJournalReplayStates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := json.RawMessage(`{"workload":"li","insts":5000}`)
	sub := func(id string) journalRecord {
		return journalRecord{T: recSubmit, Job: id, Kind: "run", Key: "k-" + id, Req: req, TimeoutMS: 60000}
	}
	mustAppend(t, jl, sub("j-000001"))
	mustAppend(t, jl, journalRecord{T: recStart, Job: "j-000001", Attempt: 1})
	mustAppend(t, jl, journalRecord{T: recDone, Job: "j-000001", Attempt: 1})
	mustAppend(t, jl, sub("j-000002"))
	mustAppend(t, jl, journalRecord{T: recStart, Job: "j-000002", Attempt: 1})
	mustAppend(t, jl, journalRecord{T: recRetry, Job: "j-000002", Attempt: 1, Cause: "panic: chaos"})
	mustAppend(t, jl, sub("j-000003"))
	mustAppend(t, jl, sub("j-000004"))
	mustAppend(t, jl, journalRecord{T: recStart, Job: "j-000004", Attempt: 1})
	mustAppend(t, jl, journalRecord{T: recFail, Job: "j-000004", Attempt: 3, Cause: "boom"})
	mustAppend(t, jl, sub("j-000005"))
	mustAppend(t, jl, journalRecord{T: recCancel, Job: "j-000005", Cause: "client gone"})
	jl.close()

	jobs, maxID, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if maxID != 5 {
		t.Errorf("maxID = %d, want 5", maxID)
	}
	if len(jobs) != 5 {
		t.Fatalf("replayed %d jobs, want 5", len(jobs))
	}
	want := []struct {
		state    JobState
		attempts int
		cause    string
	}{
		{StateDone, 1, ""},
		{StateRetrying, 1, "panic: chaos"},
		{StateQueued, 0, ""},
		{StateFailed, 3, "boom"},
		{StateCanceled, 0, "client gone"},
	}
	for i, w := range want {
		j := jobs[i]
		if j.State != w.state || j.Attempts != w.attempts || j.Cause != w.cause {
			t.Errorf("job %s: state %q attempts %d cause %q, want %q/%d/%q",
				j.ID, j.State, j.Attempts, j.Cause, w.state, w.attempts, w.cause)
		}
		if j.Kind != "run" || j.Timeout != time.Minute || !bytes.Equal(j.Req, req) {
			t.Errorf("job %s lost submit fields: %+v", j.ID, j)
		}
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn final line;
// replay keeps everything before it.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	good := `{"t":"submit","job":"j-000001","kind":"run","key":"k","req":{"workload":"li"},"timeout_ms":1000}` + "\n" +
		`{"t":"start","job":"j-000001","attempt":1}` + "\n"
	for _, tail := range []string{
		`{"t":"done","job":"j-0000`, // torn mid-record
		"\x00\xff\xfegarbage",       // binary garbage
		`{"t":"done"}` + "\n",       // parseable but missing job ID
	} {
		if err := os.WriteFile(path, []byte(good+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, maxID, err := replayJournal(path)
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		if len(jobs) != 1 || jobs[0].State != StateRunning || maxID != 1 {
			t.Errorf("tail %q: jobs %+v maxID %d, want 1 running job", tail, jobs, maxID)
		}
	}
}

// TestJournalKillFreezesDisk: after kill(), appends vanish — the
// on-disk journal keeps its crash-time contents.
func TestJournalKillFreezesDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, jl, journalRecord{T: recSubmit, Job: "j-000001", Kind: "run", Req: json.RawMessage(`{}`)})
	jl.kill()
	mustAppend(t, jl, journalRecord{T: recDone, Job: "j-000001"}) // must vanish
	if err := jl.compact(nil); err != nil {                       // must be a no-op too
		t.Fatal(err)
	}
	jl.close()

	jobs, _, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].State != StateQueued {
		t.Fatalf("after kill, replay = %+v, want the submit only", jobs)
	}
}

// TestJournalCompact: compaction rewrites the file down to the live
// submits and the handle stays appendable.
func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, jl, journalRecord{T: recSubmit, Job: "j-000001", Kind: "run", Req: json.RawMessage(`{}`)})
	mustAppend(t, jl, journalRecord{T: recDone, Job: "j-000001"})
	mustAppend(t, jl, journalRecord{T: recSubmit, Job: "j-000002", Kind: "figure", Req: json.RawMessage(`{"figure":"2"}`)})
	live := []journalRecord{{T: recSubmit, Job: "j-000002", Kind: "figure", Req: json.RawMessage(`{"figure":"2"}`)}}
	if err := jl.compact(live); err != nil {
		t.Fatal(err)
	}
	// The handle must still append (post-compaction transitions).
	mustAppend(t, jl, journalRecord{T: recStart, Job: "j-000002", Attempt: 1})
	jl.close()

	jobs, maxID, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j-000002" || jobs[0].State != StateRunning {
		t.Fatalf("after compact, replay = %+v, want j-000002 running", jobs)
	}
	if maxID != 2 {
		t.Errorf("maxID = %d, want 2", maxID)
	}
}

// FuzzReplayJournal: no input — valid, torn, hostile — may panic the
// replayer or produce a job without an ID; the prefix before the first
// bad line must survive.
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte(`{"t":"submit","job":"j-000001","kind":"run","key":"k","req":{"workload":"li"},"timeout_ms":1000}` + "\n"))
	f.Add([]byte(`{"t":"submit","job":"j-000001","kind":"run","req":{}}` + "\n" + `{"t":"done","job":"j-0`))
	f.Add([]byte("\x00\x01\x02"))
	f.Add([]byte(""))
	f.Add([]byte(`{"t":"cancel","job":"j-000009"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		jobs, _, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replay must tolerate any content, got %v", err)
		}
		for _, j := range jobs {
			if j.ID == "" || j.Kind == "" || len(j.Req) == 0 {
				t.Fatalf("replayed job missing required fields: %+v", j)
			}
		}
	})
}

// TestJournalAppendAfterCloseErrors: an append that cannot reach the
// file must say so — only a nil (disabled) or killed journal may drop
// records silently.
func TestJournalAppendAfterCloseErrors(t *testing.T) {
	var disabled *journal
	if err := disabled.append(journalRecord{T: recDone, Job: "j-000001"}); err != nil {
		t.Errorf("nil journal append returned %v, want silence", err)
	}
	jl, err := openJournal(filepath.Join(t.TempDir(), "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	jl.close()
	if err := jl.append(journalRecord{T: recDone, Job: "j-000001"}); err == nil {
		t.Error("append on a closed journal returned nil; the record vanished silently")
	}
	jl.kill()
	if err := jl.append(journalRecord{T: recDone, Job: "j-000001"}); err != nil {
		t.Errorf("append on a killed journal returned %v, want silence", err)
	}
}
