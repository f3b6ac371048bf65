package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// rejectX is an apply that records every line and rejects any holding 'X'.
func rejectX(got *[]string) func([]byte) error {
	return func(line []byte) error {
		if bytes.IndexByte(line, 'X') >= 0 {
			return errors.New("bad record")
		}
		*got = append(*got, string(line))
		return nil
	}
}

func writeLog(t *testing.T, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readLog(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestOpenReplaysInOrderSkippingBlankLines(t *testing.T) {
	const data = "a\n\nb\n  \t\nc\n"
	path := writeLog(t, data)
	var got []string
	l, err := Open(path, rejectX(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if want := []string{"a", "b", "c"}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("replayed %q, want %q", got, want)
	}
	if s := readLog(t, path); s != data {
		t.Fatalf("clean log rewritten to %q", s)
	}
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.wal")
	var got []string
	l, err := Open(path, rejectX(&got))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing log: %v, replayed %q", err, got)
	}
	if err := l.Append([]byte("first\n"), true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if s := readLog(t, path); s != "first\n" {
		t.Fatalf("log holds %q", s)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := writeLog(t, "a\nb\n{\"half")
	var got []string
	l, err := Open(path, rejectX(&got))
	if err != nil {
		t.Fatalf("torn tail must open cleanly: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %q, want the two complete lines", got)
	}
	if s := readLog(t, path); s != "a\nb\n" {
		t.Fatalf("torn tail not truncated: %q", s)
	}
	// The next append lands on a clean line boundary.
	if err := l.Append([]byte("c\n"), true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if s := readLog(t, path); s != "a\nb\nc\n" {
		t.Fatalf("log after append holds %q", s)
	}
}

func TestOpenCorruptLineFailsClosed(t *testing.T) {
	const data = "a\nXX\nb\n{\"torn"
	path := writeLog(t, data)
	var got []string
	_, err := Open(path, rejectX(&got))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt line: got %v, want ErrCorrupt", err)
	}
	if msg := err.Error(); !bytes.Contains([]byte(msg), []byte(path)) || !bytes.Contains([]byte(msg), []byte("byte 2")) {
		t.Fatalf("error %q does not name the file and offset", msg)
	}
	if s := readLog(t, path); s != data {
		t.Fatalf("corrupt log modified: %q", s)
	}
	// Replay reports the same corruption after applying the prefix.
	got = nil
	if err := Replay(path, rejectX(&got)); !errors.Is(err, ErrCorrupt) || len(got) != 1 {
		t.Fatalf("Replay: %v after %q", err, got)
	}
}

func TestApplyErrorStaysMatchable(t *testing.T) {
	mine := errors.New("caller's sentinel")
	path := writeLog(t, "a\n")
	_, err := Open(path, func([]byte) error { return mine })
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, mine) {
		t.Fatalf("got %v, want both ErrCorrupt and the caller's error", err)
	}
}

func TestCompactionTriggerDoubles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.wal")
	l, err := Open(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const floor = 10
	line := []byte("0123456789\n") // 11 bytes
	if err := l.Append(line, true); err != nil {
		t.Fatal(err)
	}
	if !l.Due(floor) {
		t.Fatal("11 bytes past a floor of 10 is not due")
	}
	// Compacting to 30 bytes moves the trigger to 2 × 30.
	live := bytes.Repeat([]byte("abcdefghi\n"), 3)
	if err := l.Compact(live); err != nil {
		t.Fatal(err)
	}
	if s := readLog(t, path); s != string(live) {
		t.Fatalf("compacted log holds %q", s)
	}
	if l.Due(floor) {
		t.Fatal("due right after compaction")
	}
	for l.size+int64(len(line)) <= 60 {
		if err := l.Append(line, false); err != nil {
			t.Fatal(err)
		}
		if l.Due(floor) {
			t.Fatalf("due at %d bytes, threshold is 60", l.size)
		}
	}
	if err := l.Append(line, false); err != nil {
		t.Fatal(err)
	}
	if !l.Due(floor) {
		t.Fatalf("not due at %d bytes, threshold is 60", l.size)
	}
	// A larger floor dominates a small compacted size.
	if l.Due(1 << 20) {
		t.Fatal("due below the floor")
	}
}

func TestFailedAppendRollsBack(t *testing.T) {
	path := writeLog(t, "a\n")
	l, err := Open(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("b\n"), true); err != nil {
		t.Fatal(err)
	}
	// A read-only handle fails the write, and the truncate rollback with it.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close()
	l.f = ro
	first := l.Append([]byte("c\n"), true)
	if first == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	if again := l.Append([]byte("d\n"), true); again != first {
		t.Fatalf("after a failed rollback: got %v, want the same error %v", again, first)
	}
	if err := l.Compact([]byte("x\n")); err != first {
		t.Fatalf("compaction after a failed rollback: got %v, want %v", err, first)
	}
	if s := readLog(t, path); s != "a\nb\n" {
		t.Fatalf("log holds %q, want it unchanged", s)
	}
}

// FuzzWALReplay: for arbitrary file bytes, Open either replays exactly the
// complete non-blank lines and leaves the file as their prefix, or fails
// with ErrCorrupt and leaves the file byte-identical.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("a\nb\n"))
	f.Add([]byte("a\n\n  \nb\ntorn"))
	f.Add([]byte("a\nX\nb\n"))
	f.Add([]byte("no newline at all"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("a\r\nb\x00\n\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		prefix := data[:bytes.LastIndexByte(data, '\n')+1]
		var want []string
		corrupt := false
		for _, line := range bytes.SplitAfter(prefix, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\n"))
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			if bytes.IndexByte(line, 'X') >= 0 {
				corrupt = true
				break
			}
			want = append(want, string(line))
		}
		var got []string
		l, err := Open(path, rejectX(&got))
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if corrupt {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupt log opened: %v", err)
			}
			if !bytes.Equal(after, data) {
				t.Fatalf("corrupt log modified: %q -> %q", data, after)
			}
			return
		}
		if err != nil {
			t.Fatalf("clean log rejected: %v", err)
		}
		defer l.Close()
		if len(got) != len(want) {
			t.Fatalf("replayed %q, want %q", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replayed %q, want %q", got, want)
			}
		}
		if !bytes.Equal(after, prefix) {
			t.Fatalf("file left as %q, want %q", after, prefix)
		}
		if l.size != int64(len(prefix)) {
			t.Fatalf("size %d, want %d", l.size, len(prefix))
		}
	})
}
