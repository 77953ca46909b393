package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type rec struct {
	T string `json:"t"`
	N int    `json:"n"`
}

// replayAll collects every record Replay yields.
func replayAll(t *testing.T, path string) []rec {
	t.Helper()
	var out []rec
	if err := Replay(path, func(r rec) bool { out = append(out, r); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{{"a", 1}, {"b", 2}, {"c", 3}}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	got := replayAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %v, want %v", i, got[i], want[i])
		}
	}

	// Reopening appends after the existing records.
	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{"d", 4}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := replayAll(t, path); len(got) != 4 || got[3] != (rec{"d", 4}) {
		t.Errorf("after reopen, replayed %v", got)
	}

	// A missing file replays as empty, not as an error.
	if got := replayAll(t, filepath.Join(t.TempDir(), "absent.wal")); len(got) != 0 {
		t.Errorf("missing file replayed %v", got)
	}
}

// Replay stops where fn says so, without error.
func TestReplayStopsOnRequest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	if err := os.WriteFile(path, []byte(`{"t":"a"}`+"\n"+`{"t":"stop"}`+"\n"+`{"t":"b"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []string
	err := Replay(path, func(r rec) bool {
		seen = append(seen, r.T)
		return r.T != "stop"
	})
	if err != nil || strings.Join(seen, ",") != "a,stop" {
		t.Errorf("seen %v err %v, want a,stop", seen, err)
	}
}

func TestTornTailKeepsPrefix(t *testing.T) {
	good := `{"t":"a","n":1}` + "\n" + `{"t":"b","n":2}` + "\n"
	for _, tail := range []string{
		`{"t":"c","n`,                          // torn mid-record
		"\x00\xff\xfegarbage\n",                // binary garbage
		"\n" + `{"t":"c","n":3}` + "\n",        // blank line, then a record it hides
		`{"t":"c","n":3}garbage` + "\n",        // trailing junk on a line
		`not json` + "\n" + `{"t":"c"}` + "\n", // a bad line hides later good ones
	} {
		path := filepath.Join(t.TempDir(), "log.wal")
		if err := os.WriteFile(path, []byte(good+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, path)
		if len(got) != 2 || got[0] != (rec{"a", 1}) || got[1] != (rec{"b", 2}) {
			t.Errorf("tail %q: replayed %v, want the two good records", tail, got)
		}
	}
}

// Reopening a log whose last append was torn by a crash must cut the
// fragment off, so the next record lands on its own line and later
// replays see it.
func TestOpenCutsTornTail(t *testing.T) {
	for _, tail := range []string{`{"t":"c","n`, `{"t":"c","n":3}`, "\x00garbage"} {
		path := filepath.Join(t.TempDir(), "log.wal")
		if err := os.WriteFile(path, []byte(`{"t":"a","n":1}`+"\n"+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(rec{"d", 4}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		got := replayAll(t, path)
		if len(got) != 2 || got[0] != (rec{"a", 1}) || got[1] != (rec{"d", 4}) {
			t.Errorf("tail %q: after reopen and append, replayed %v", tail, got)
		}
	}
}

func TestOversizeLineEndsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	huge := `{"t":"` + strings.Repeat("x", maxLine) + `"}`
	data := `{"t":"a"}` + "\n" + huge + "\n" + `{"t":"b"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 1 || got[0].T != "a" {
		t.Errorf("replayed %d records, want only the one before the oversize line", len(got))
	}
}

// Concurrent readers of a path being rewritten must always see one
// complete version — the old file or the new one, never a mix or a
// truncation — and a write that fails leaves no temp file behind.
func TestWriteFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	versions := [][]byte{
		bytes.Repeat([]byte("A"), 1<<16),
		bytes.Repeat([]byte("B"), 1<<15),
	}
	if err := WriteFile(path, versions[0]); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("read during rewrite: %v", err)
				return
			}
			if !bytes.Equal(got, versions[0]) && !bytes.Equal(got, versions[1]) {
				t.Errorf("reader saw a torn file of %d bytes", len(got))
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := WriteFile(path, versions[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if info, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if info.Mode().Perm() != 0o644 {
		t.Errorf("written file mode %v, want 0644", info.Mode().Perm())
	}

	// A rename onto a non-empty directory fails; the temp must go too.
	blocker := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocker, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocker, []byte("x")); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(leftovers) != 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
}

// Rewrite compacts the file and the handle keeps appending to it.
func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.Append(rec{"old", i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewrite(rec{"kept", 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{"new", 2}); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 2 || got[0] != (rec{"kept", 1}) || got[1] != (rec{"new", 2}) {
		t.Errorf("after rewrite, replayed %v", got)
	}
}

func TestAppendAfterCloseErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := l.Append(rec{"late", 1}); !errors.Is(err, errClosed) {
		t.Errorf("append after close returned %v, want errClosed", err)
	}
	if err := l.Rewrite(); !errors.Is(err, errClosed) {
		t.Errorf("rewrite after close returned %v, want errClosed", err)
	}
}

// FuzzReplay: for any file content, Replay never panics or errors, and
// yields exactly the leading run of lines that decode — the durable
// prefix — in order.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(`{"t":"a","n":1}` + "\n" + `{"t":"b"}` + "\n"))
	f.Add([]byte(`{"t":"a"}` + "\n" + `{"t":"b`))
	f.Add([]byte("{}\r\n[]\n"))
	f.Add([]byte("\x00\x01\x02"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		var got []json.RawMessage
		if err := Replay(path, func(r json.RawMessage) bool { got = append(got, r); return true }); err != nil {
			t.Fatalf("replay must tolerate any content, got %v", err)
		}
		// The oracle: split into lines the way a line scanner does (a
		// final unterminated line counts, a trailing \r is dropped) and
		// keep the valid-JSON prefix, minus the surrounding whitespace a
		// decoded value does not carry.
		var want [][]byte
		lines := bytes.Split(data, []byte("\n"))
		if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		for _, line := range lines {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if !json.Valid(line) {
				break
			}
			want = append(want, bytes.TrimSpace(line))
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, want the %d-line valid prefix", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
			}
		}
	})
}
