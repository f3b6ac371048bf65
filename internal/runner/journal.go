package runner

import (
	"encoding/json"
	"fmt"
	"sync"

	"bankaware/internal/wal"
)

// Journal is a lightweight checkpoint for one fan-out: every completed
// job's index and JSON-encoded result, appended line by line to a file. A
// campaign killed mid-run reopens the journal and Map restores the recorded
// jobs instead of recomputing them; since results are stored as JSON and
// Go's encoder round-trips float64 exactly, a resumed campaign emits
// reports byte-identical to an uninterrupted one.
//
// The format is JSON lines, {"job":17,"result":{...}}, on an internal/wal
// log: a truncated final line (a crash mid-record) is cut off on open and
// the affected job is simply recomputed, while a complete line that does
// not decode fails the open with wal.ErrCorrupt. Result types must
// round-trip through encoding/json — exported fields only.
type Journal struct {
	mu   sync.Mutex
	log  *wal.Log
	done map[int]json.RawMessage
}

type journalRecord struct {
	Job    int             `json:"job"`
	Result json.RawMessage `json:"result"`
}

// OpenJournal opens the checkpoint file at path (created by the first
// Record) and loads the completed-job records already in it.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{done: make(map[int]json.RawMessage)}
	log, err := wal.Open(path, func(line []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		j.done[rec.Job] = rec.Result
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("runner: opening journal: %w", err)
	}
	j.log = log
	return j, nil
}

// Len returns how many completed jobs the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Close closes the underlying file. Records already appended stay on disk.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// Restore decodes job's recorded result into out. It returns false when the
// journal has no record for the job; an error means the record exists but
// does not decode into out (a schema change — the caller recomputes).
func (j *Journal) Restore(job int, out any) (bool, error) {
	j.mu.Lock()
	raw, ok := j.done[job]
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, fmt.Errorf("runner: journal record for job %d: %w", job, err)
	}
	return true, nil
}

// Record appends job's result to the journal. The line is written and
// synced before Record returns, so a crash immediately after cannot lose
// the job.
func (j *Journal) Record(job int, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("runner: encoding journal record for job %d: %w", job, err)
	}
	line, err := json.Marshal(journalRecord{Job: job, Result: raw})
	if err != nil {
		return fmt.Errorf("runner: encoding journal record for job %d: %w", job, err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(line, true); err != nil {
		return fmt.Errorf("runner: journal record for job %d: %w", job, err)
	}
	j.done[job] = raw
	return nil
}
