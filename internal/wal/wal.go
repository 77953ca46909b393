// Package wal is the durable core of the two write-ahead logs, the
// reese-serve job journal (internal/server) and the cluster
// coordinator's campaign WAL (internal/cluster): fsync'd JSON-lines
// appends, torn-tail-tolerant replay, and atomic file writes. Record
// schemas and policy (what to journal, how to fold records into state,
// when to compact) stay with each log.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// maxLine caps one replayed line. Records carry canonical requests with
// full machine configurations, a few KB each; a line longer than this
// ends replay exactly like a torn one.
const maxLine = 16 << 20

// errClosed is returned when appending to or rewriting a closed log.
var errClosed = errors.New("wal: log closed")

// Log is an append handle on one JSON-lines file, safe for concurrent
// use: appends are serialized, so records never interleave mid-line.
type Log struct {
	path string

	mu sync.Mutex
	f  *os.File // nil once closed
}

// Open opens (creating if needed) the log at path for appending.
// A torn final line, the bytes after the last newline that a crash
// left mid-append (never acknowledged), is cut off first: a record
// appended after it would be glued onto the fragment and hidden from
// every later replay.
func Open(path string) (*Log, error) {
	f, err := openAppend(path)
	if err != nil {
		return nil, err
	}
	return &Log{path: path, f: f}, nil
}

func openAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if keep := bytes.LastIndexByte(data, '\n') + 1; err == nil && keep < len(data) {
		err = f.Truncate(int64(keep))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Append writes rec as one JSON line and fsyncs it before returning, so
// an acknowledged record survives power loss.
func (l *Log) Append(rec any) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return l.f.Sync()
}

// Rewrite atomically replaces the log's contents with recs, one JSON
// line each (compaction), and keeps appending to the new file. If the
// new file cannot be reopened the log is left closed, so later appends
// report errClosed instead of vanishing.
func (l *Log) Rewrite(recs ...any) error {
	var data []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		data = append(append(data, line...), '\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	if err := WriteFile(l.path, data); err != nil {
		return err
	}
	l.f.Close()
	var err error
	l.f, err = openAppend(l.path)
	return err
}

// Close releases the file handle; the file itself is untouched. Closing
// twice is harmless.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Replay decodes the log at path one line at a time, in order, calling
// fn with each record until fn returns false. A missing file replays
// nothing. The first line that does not decode as a T — a torn tail,
// garbage, or a line over maxLine — ends the replay without error, as
// does a read error: replay keeps the durable prefix and never fails on
// content. Only an unopenable file is an error.
func Replay[T any](path string, fn func(T) bool) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: open for replay: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	for sc.Scan() {
		var rec T
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || !fn(rec) {
			return nil
		}
	}
	return nil
}

// WriteFile atomically replaces (or creates) path with data: it writes
// a uniquely named temp file in the same directory, fsyncs it, renames
// it over path, and fsyncs the directory so the rename is durable too.
// A crash at any point leaves either the old file or the new one.
// Concurrent writers of the same path each use their own temp file; the
// last rename wins.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(0o644)
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames and creations inside it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
