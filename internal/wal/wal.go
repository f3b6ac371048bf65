// Package wal is the repository's one append-only log: a file of
// newline-terminated records (the intake WAL, the per-job shard WALs, the
// run ledger and the checkpoint journals all sit on it). Callers own the
// record encoding and their locking; wal owns what a bad line means.
//
// The policy, the same for every log:
//
//   - Open replays every complete, non-blank line through the caller's
//     apply function. An unterminated final line is a torn tail — the
//     append that wrote it never returned, so it was never synced or
//     acknowledged — and is truncated away. A complete line that apply
//     rejects fails the open with ErrCorrupt, naming the file and byte
//     offset, and leaves the file untouched as evidence.
//   - Append writes one buffer in one write, with an fsync only when asked.
//     A failed write or fsync truncates the file back to its last good size
//     before the error returns, so the next append never lands behind
//     garbage. If that rollback fails too, the log refuses every later
//     append with the same error.
//   - Compact replaces the contents through internal/atomicio. Due reports
//     when a compaction is worth it: once the log exceeds max(floor, 2 × its
//     size after the last compaction), so a log whose live set keeps growing
//     cannot turn O(1) appends into O(n) rewrites.
//
// A Log is not safe for concurrent use.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"bankaware/internal/atomicio"
)

// ErrCorrupt reports a complete record that the caller's apply rejected:
// corruption in the synced body of the log, never a torn tail.
var ErrCorrupt = errors.New("wal: corrupt record")

// Log is one open append-only log.
type Log struct {
	path string
	// f is opened on the first append and dropped by Compact and Close.
	f         *os.File
	size      int64 // bytes of complete records on disk
	compacted int64 // size after the last Compact
	dirty     bool  // appended since the last fsync
	// err, once set, is a failed append whose rollback also failed: the
	// file may end in garbage, so every later append returns it.
	err error
}

// Open replays the log at path (a missing file is an empty log) through
// apply and truncates a torn tail. apply sees each line without its
// newline and must not retain the slice.
func Open(path string, apply func([]byte) error) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	valid, err := replay(path, data, apply)
	if err != nil {
		return nil, err
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	return &Log{path: path, size: int64(valid)}, nil
}

// Replay is Open without the log: it applies the log's complete lines and
// never writes the file. A torn tail is ignored; a rejected line stops the
// replay with ErrCorrupt after the lines before it were applied.
func Replay(path string, apply func([]byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("wal: reading %s: %w", path, err)
	}
	_, err = replay(path, data, apply)
	return err
}

// replay applies data's complete lines and returns the length of the
// prefix they span.
func replay(path string, data []byte, apply func([]byte) error) (int, error) {
	off := 0
	for {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return off, nil
		}
		line := data[off : off+nl]
		if len(bytes.TrimSpace(line)) > 0 {
			if err := apply(line); err != nil {
				return 0, fmt.Errorf("%w: %s at byte %d: %w", ErrCorrupt, path, off, err)
			}
		}
		off += nl + 1
	}
}

// Append writes buf, which must hold whole newline-terminated records, and
// fsyncs when sync is set.
func (l *Log) Append(buf []byte, sync bool) error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: opening %s: %w", l.path, err)
		}
		l.f = f
	}
	_, err := l.f.Write(buf)
	if err == nil && sync {
		err = l.f.Sync()
	}
	if err != nil {
		err = fmt.Errorf("wal: appending to %s: %w", l.path, err)
		if terr := l.f.Truncate(l.size); terr != nil {
			l.err = fmt.Errorf("%w (rollback failed: %v)", err, terr)
			return l.err
		}
		return err
	}
	l.size += int64(len(buf))
	l.dirty = !sync
	return nil
}

// Due reports whether the log has outgrown max(floor, 2 × its size after
// the last Compact).
func (l *Log) Due(floor int64) bool {
	return l.size > max(floor, 2*l.compacted)
}

// Compact atomically replaces the log's contents with data, which must
// hold whole newline-terminated records. On failure the old contents stay.
func (l *Log) Compact(data []byte) error {
	if l.err != nil {
		return l.err
	}
	// Every record the old handle wrote is superseded by data, so a close
	// error loses nothing.
	_ = l.Close()
	if err := atomicio.WriteFileBytes(l.path, data); err != nil {
		return fmt.Errorf("wal: compacting %s: %w", l.path, err)
	}
	l.size = int64(len(data))
	l.compacted = l.size
	return nil
}

// Close fsyncs any unsynced appends and releases the file handle. A later
// Append reopens it.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if l.dirty {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.dirty = nil, false
	return err
}
