package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// JSONLFile is a goroutine-safe, line-oriented JSON writer with size
// rotation — the streaming counterpart of WriteJSONL for long-running
// servers, where spans and access records must leave the process as
// they happen instead of buffering until exit.
//
// Every record is written as one JSON line and flushed immediately, so
// a reader of the file (or a post-crash recovery) only ever sees whole
// lines plus at most one torn tail from a mid-write crash; a graceful
// Close never leaves one. When a write would push the file past
// maxBytes, the current file is renamed to <path>.1 (replacing any
// previous rotation) and a fresh file is started — a server under
// sustained load keeps at most two generations on disk.
type JSONLFile struct {
	mu       sync.Mutex
	path     string        // guarded by mu
	maxBytes int64         // guarded by mu; <= 0 disables rotation
	f        *os.File      // guarded by mu
	w        *bufio.Writer // guarded by mu
	size     int64         // guarded by mu
	closed   bool          // guarded by mu
}

// OpenJSONLFile creates (truncating) path for streaming records.
// maxBytes <= 0 disables rotation.
func OpenJSONLFile(path string, maxBytes int64) (*JSONLFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &JSONLFile{path: path, maxBytes: maxBytes, f: f, w: bufio.NewWriter(f)}, nil
}

// WriteSpan implements SpanSink.
func (l *JSONLFile) WriteSpan(rec SpanRecord) error {
	return l.WriteRecord(rec)
}

// WriteRecord appends v as one JSON line and flushes it. Nil-safe: a
// nil *JSONLFile drops the record, so disabled logs cost one nil check.
func (l *JSONLFile) WriteRecord(v any) error {
	if l == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("jsonl %s: write after close", l.path)
	}
	if l.maxBytes > 0 && l.size > 0 && l.size+int64(len(data)) > l.maxBytes {
		// Rotate: close the current generation as <path>.1 and start a
		// fresh file.
		if err := l.w.Flush(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		if err := os.Rename(l.path, l.path+".1"); err != nil {
			return err
		}
		f, err := os.Create(l.path)
		if err != nil {
			return err
		}
		l.f = f
		l.w = bufio.NewWriter(f)
		l.size = 0
	}
	if _, err := l.w.Write(data); err != nil {
		return err
	}
	l.size += int64(len(data))
	return l.w.Flush()
}

// Close flushes and closes the current file. Nil-safe and idempotent.
func (l *JSONLFile) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	flushErr := l.w.Flush()
	closeErr := l.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
