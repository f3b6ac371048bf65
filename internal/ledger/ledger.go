// Package ledger implements bankaware.ledger/v1: an append-only,
// hash-chained Merkle log over job lifecycle records and report content
// hashes. The ledger is the integrity backbone of the result path — it
// observes bytes, it never changes them. Every entry carries the leaf hash
// of the previous entry (a hash chain that pins the append order) and
// contributes a leaf to an RFC 6962-style Merkle tree, whose root is the
// compact commitment the daemon exposes on /healthz and whose inclusion
// proofs let a client verify a fetched report end-to-end without trusting
// the store.
//
// Entries append as JSON lines to an internal/wal log and share its one
// durability policy: a crash mid-append leaves an unterminated tail that
// replay truncates (the entry was never acknowledged), and a failed append
// is rolled back. Any complete line that fails to parse, breaks the chain,
// or does not re-hash to its recorded leaf is corruption — Open fails
// closed with ErrCorrupt so the caller can quarantine the log and rebuild
// it from the store (the root is reproducible from the stored records and
// report bytes).
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"bankaware/internal/wal"
)

// Version tags every entry's on-disk encoding.
const Version = "bankaware.ledger/v1"

// Entry types.
const (
	// TypeJob records one job state transition; Data is the state name and
	// Hash the job's canonical spec hash.
	TypeJob = "job"
	// TypeReport records one stored run report; Hash is the SHA-256 of the
	// stored report bytes — the hash a verifier recomputes from a fetch.
	TypeReport = "report"
)

// ErrCorrupt reports a ledger whose synced contents fail verification: a
// complete line that does not parse, an index or chain break, or a leaf
// hash that does not recompute. It is distinct from a torn tail, which
// replay tolerates silently.
var ErrCorrupt = errors.New("ledger: corrupt")

// Record is the caller-supplied content of one entry.
type Record struct {
	// Type is TypeJob or TypeReport.
	Type string `json:"type"`
	// Job names the job the record observes.
	Job string `json:"job"`
	// Data is the state name for TypeJob records; empty for TypeReport.
	Data string `json:"data,omitempty"`
	// Hash is a hex SHA-256 content hash: the canonical spec hash for job
	// records, the stored report bytes for report records.
	Hash string `json:"hash,omitempty"`
}

// Entry is one sealed ledger entry: the record plus its position, chain
// link and leaf hash. Entries are immutable once appended.
type Entry struct {
	Version string `json:"v"`
	Index   int    `json:"i"`
	Record
	// Prev is the previous entry's leaf hash (empty for entry 0) — the
	// hash chain that pins append order independently of the tree.
	Prev string `json:"prev,omitempty"`
	// Leaf is hex(SHA-256(0x00 || body)) where body is the entry's
	// canonical JSON without this field; it is both the chain link carried
	// by the next entry and this entry's Merkle leaf.
	Leaf string `json:"leaf"`
}

// leafBody is the canonical pre-image of an entry's leaf hash: the entry
// minus the Leaf field, in fixed field order.
type leafBody struct {
	Version string `json:"v"`
	Index   int    `json:"i"`
	Type    string `json:"type"`
	Job     string `json:"job"`
	Data    string `json:"data,omitempty"`
	Hash    string `json:"hash,omitempty"`
	Prev    string `json:"prev,omitempty"`
}

// LeafHash computes the leaf hash of an entry from everything but its Leaf
// field. Exported so a verifier holding a proof can recompute the leaf
// from the served entry instead of trusting the recorded value.
func LeafHash(e Entry) ([32]byte, error) {
	body, err := json.Marshal(leafBody{
		Version: e.Version, Index: e.Index, Type: e.Type,
		Job: e.Job, Data: e.Data, Hash: e.Hash, Prev: e.Prev,
	})
	if err != nil {
		return [32]byte{}, err
	}
	return leafHash(body), nil
}

// Ledger is the open log. Safe for concurrent use.
type Ledger struct {
	mu      sync.Mutex
	log     *wal.Log
	entries []Entry
	tree    tree
	// latestReport maps job ID -> index of its most recent TypeReport
	// entry (a re-run after quarantine appends a fresh one; proofs serve
	// the latest).
	latestReport map[string]int
}

// Open loads (or initialises) the ledger at path through internal/wal's
// replay policy: a torn tail is truncated, and a complete entry that fails
// to parse, breaks the index or chain, or does not re-hash to its leaf
// fails the open with an error matching both ErrCorrupt and wal.ErrCorrupt,
// leaving the file untouched as evidence.
func Open(path string) (*Ledger, error) {
	l := &Ledger{latestReport: make(map[string]int)}
	log, err := wal.Open(path, func(line []byte) error {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("%w: entry %d does not parse: %v", ErrCorrupt, len(l.entries), err)
		}
		if err := l.verifyNext(e); err != nil {
			return err
		}
		l.admit(e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.log = log
	return l, nil
}

// verifyNext checks that e is the valid successor of the loaded prefix.
func (l *Ledger) verifyNext(e Entry) error {
	i := len(l.entries)
	if e.Version != Version {
		return fmt.Errorf("%w: entry %d has version %q", ErrCorrupt, i, e.Version)
	}
	if e.Index != i {
		return fmt.Errorf("%w: entry at position %d carries index %d", ErrCorrupt, i, e.Index)
	}
	prev := ""
	if i > 0 {
		prev = l.entries[i-1].Leaf
	}
	if e.Prev != prev {
		return fmt.Errorf("%w: entry %d breaks the hash chain", ErrCorrupt, i)
	}
	leaf, err := LeafHash(e)
	if err != nil {
		return fmt.Errorf("ledger: hashing entry %d: %w", i, err)
	}
	if hex.EncodeToString(leaf[:]) != e.Leaf {
		return fmt.Errorf("%w: entry %d leaf hash does not recompute", ErrCorrupt, i)
	}
	return nil
}

// admit folds a verified entry into the in-memory state.
func (l *Ledger) admit(e Entry) {
	leaf, _ := hex.DecodeString(e.Leaf)
	var h [32]byte
	copy(h[:], leaf)
	l.entries = append(l.entries, e)
	l.tree.push(h)
	if e.Type == TypeReport {
		l.latestReport[e.Job] = e.Index
	}
}

// Append seals rec as the next entry and persists it. sync forces an fsync
// before the entry is admitted: terminal transitions and report hashes are
// synced (a proof must never outlive its entry), while high-rate
// observational records (queued, running) may ride along on the next sync
// — a crash can drop that tail, which replay tolerates exactly like a torn
// WAL batch.
func (l *Ledger) Append(rec Record, sync bool) (Entry, error) {
	entries, err := l.AppendBatch([]Record{rec}, sync)
	if err != nil {
		return Entry{}, err
	}
	return entries[0], nil
}

// AppendBatch seals and persists recs in order with a single write (and, if
// sync, a single fsync) — the ledger side of the intake group commit.
func (l *Ledger) AppendBatch(recs []Record, sync bool) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var buf bytes.Buffer
	entries := make([]Entry, 0, len(recs))
	// Seal against the would-be state: entries only admit after the write
	// succeeds, so a failed batch leaves the chain untouched.
	base := len(l.entries)
	prev := ""
	if base > 0 {
		prev = l.entries[base-1].Leaf
	}
	for k, rec := range recs {
		e := Entry{Version: Version, Index: base + k, Record: rec, Prev: prev}
		leaf, err := LeafHash(e)
		if err != nil {
			return nil, fmt.Errorf("ledger: hashing entry %d: %w", e.Index, err)
		}
		e.Leaf = hex.EncodeToString(leaf[:])
		line, err := json.Marshal(e)
		if err != nil {
			return nil, fmt.Errorf("ledger: encoding entry %d: %w", e.Index, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
		entries = append(entries, e)
		prev = e.Leaf
	}
	if err := l.log.Append(buf.Bytes(), sync); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	for _, e := range entries {
		l.admit(e)
	}
	return entries, nil
}

// Len returns the number of entries.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Root returns the hex Merkle root over all entries. Two nodes whose
// ledgers agree byte-for-byte report the same root — the cheap cross-node
// integrity check fleet monitors compare.
func (l *Ledger) Root() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	root := l.tree.root()
	return hex.EncodeToString(root[:])
}

// Entry returns entry i.
func (l *Ledger) Entry(i int) (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.entries) {
		return Entry{}, false
	}
	return l.entries[i], true
}

// LatestReport returns the most recent TypeReport entry for job.
func (l *Ledger) LatestReport(job string) (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.latestReport[job]
	if !ok {
		return Entry{}, false
	}
	return l.entries[i], true
}

// Prove builds the inclusion proof of entry i against the current tree.
func (l *Ledger) Prove(i int) (*Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.entries) {
		return nil, fmt.Errorf("ledger: no entry %d (ledger has %d)", i, len(l.entries))
	}
	leaves := make([][32]byte, len(l.entries))
	for k, e := range l.entries {
		raw, err := hex.DecodeString(e.Leaf)
		if err != nil || len(raw) != sha256.Size {
			return nil, fmt.Errorf("%w: entry %d leaf is not a hash", ErrCorrupt, k)
		}
		copy(leaves[k][:], raw)
	}
	path := inclusionPath(i, leaves)
	hexPath := make([]string, len(path))
	for k, h := range path {
		hexPath[k] = hex.EncodeToString(h[:])
	}
	root := l.tree.root()
	return &Proof{
		Version:  ProofVersion,
		Entry:    l.entries[i],
		TreeSize: len(l.entries),
		Path:     hexPath,
		Root:     hex.EncodeToString(root[:]),
	}, nil
}

// Close syncs any unsynced entries and releases the file handle.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Close()
}
