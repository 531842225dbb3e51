// Package ledger is the persistent, content-addressed run store behind
// `catsim serve` and `catsim run -ledger`: solved aerothermal environments
// keyed by the canonical SHA-256 of their case (core.CaseKey), so repeat
// traffic for the same flight condition is served from disk instead of
// re-solved, and long campaigns survive process restarts.
//
// # Layout
//
// One directory per ledger. A key has up to two record files, sharded by
// the first two hex digits of the key to keep directory fan-out bounded:
//
//	<root>/ab/abcdef…0123.json   the result entry (Entry)
//	<root>/ab/abcdef…0123.ckpt   the partial-run checkpoint (Checkpoint)
//
// A checkpoint is the latest resumable solver state of an in-flight or
// interrupted solve, stored under the key its result will have. A
// restarted server or CLI finds it by the key it would look the result up
// by and resumes the march instead of re-solving from step 0; Put removes
// it once the result lands.
//
// # Crash safety
//
// Both kinds are one record format — a JSON header (format version, key,
// creation time, payload checksum) around a payload: the result artifact
// or the encoded solver checkpoint — with one write, one verified read
// and one directory scan. A record is written to a temporary file in the
// destination directory, flushed, and atomically renamed into place, so a
// reader never observes a partially written record under its final name.
// Defense in depth on the read side: every read re-reads the file and
// re-verifies the format version, key and payload checksum, and a file that
// fails (a half-written file restored from a snapshot, bit rot) is
// quarantined — removed and reported as a miss — so a corrupt result is
// re-solved, never served, and a torn checkpoint is never resumed from. A
// record of another format version is a plain miss, left in place for the
// version that owns it. An entry read skips only the decode, and only when
// the SHA-256 of the bytes just read equals that of bytes which already
// verified under the key through the same Ledger (see Get): a file changed
// in any byte, whatever its size and mtime, is decoded and checked again.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cataero/internal/faultinject"
)

// FormatVersion is the on-disk record schema version. Records written with
// a different version are treated as misses (and left in place for the
// version that owns them).
const FormatVersion = 1

// keyLen is the length of a lowercase-hex SHA-256 content key.
const keyLen = sha256.Size * 2

// Entry is one stored run: the canonical case, the marshaled result
// artifact, and solver-provenance metadata including the final convergence
// snapshot.
type Entry struct {
	Format int    `json:"format"`
	Key    string `json:"key"`
	// Spec is the canonical case JSON the key was computed from
	// (core.CanonicalJSON), stored so `ledger ls|get` can describe entries
	// without the original case file.
	Spec json.RawMessage `json:"spec"`
	// Result is the marshaled Environment — byte-for-byte the artifact
	// `catsim run -out` writes and the serve API returns.
	Result json.RawMessage `json:"result"`
	// Snapshot is the run's terminal snapshot (state, step count, final
	// residual, retained history), when the producer had one.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	Solver   string          `json:"solver,omitempty"`  // registry name of the executing solver
	Version  string          `json:"version,omitempty"` // toolkit version that produced the result
	Created  time.Time       `json:"created"`
	// ElapsedMS is the wall-clock cost of the original solve — what a hit
	// saves.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Checksum is the hex SHA-256 of Result, verified on every Get.
	Checksum string `json:"checksum"`
}

// Checkpoint is one stored partial run.
type Checkpoint struct {
	Format int    `json:"format"`
	Key    string `json:"key"`
	// Spec is the canonical case JSON of the run (core.CanonicalJSON), so a
	// restarted service can reconstruct and re-submit the problem from the
	// checkpoint alone.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Step is the completed-step count the checkpoint resumes at (display
	// only; the authoritative position travels inside Data).
	Step    int       `json:"step,omitempty"`
	Solver  string    `json:"solver,omitempty"`  // registry name of the executing solver
	Version string    `json:"version,omitempty"` // toolkit version that wrote the checkpoint
	Created time.Time `json:"created"`
	// Data is the encoded solver checkpoint (fvm.Checkpoint.AppendBinary),
	// base64 in the JSON encoding.
	Data []byte `json:"data"`
	// Checksum is the hex SHA-256 of Data, verified on every read.
	Checksum string `json:"checksum"`
}

// record is the codec's view of an Entry or a Checkpoint: the header
// fields both kinds share and the payload the checksum covers.
type record interface {
	header() (format *int, key *string, created *time.Time, checksum *string, payload []byte)
}

func (e *Entry) header() (*int, *string, *time.Time, *string, []byte) {
	return &e.Format, &e.Key, &e.Created, &e.Checksum, e.Result
}

func (c *Checkpoint) header() (*int, *string, *time.Time, *string, []byte) {
	return &c.Format, &c.Key, &c.Created, &c.Checksum, c.Data
}

// kind is one of the two record files a key may have.
type kind struct {
	ext       string // file name suffix after the key
	fault     string // faultinject point that fails the write
	mangle    string // faultinject point that corrupts the written bytes ("" = none)
	newRecord func() record
}

var (
	entryFile = &kind{
		ext: ".json", fault: "ledger.put",
		newRecord: func() record { return new(Entry) },
	}
	ckptFile = &kind{
		ext: ".ckpt", fault: "ledger.put-checkpoint", mangle: "ledger.checkpoint-data",
		newRecord: func() record { return new(Checkpoint) },
	}
	kinds = [...]*kind{entryFile, ckptFile}
)

// Stats are the ledger's monotonic operation counters.
type Stats struct {
	Hits    int64 // Get found a valid entry
	Misses  int64 // Get found nothing
	Corrupt int64 // a read quarantined an invalid entry or checkpoint
	Puts    int64 // entries written
}

// Ledger is a content-addressed store rooted at one directory. All methods
// are safe for concurrent use by any number of processes: writes are
// atomic renames and reads verify integrity, so CLI and server can share
// one ledger.
type Ledger struct {
	dir string

	hits, misses, corrupt, puts atomic.Int64

	mu sync.Mutex
	// verified maps a key to the digest of the entry-file bytes that last
	// verified under it through this handle, and the entry they decoded to
	// (see Get). It holds at most MemoKeys keys.
	verified map[string]verifiedEntry
}

// MemoKeys bounds the keys a Ledger remembers a verified entry for, and
// what a server built on one remembers per key: a response rendered from an
// entry is worth keeping only while Get still returns that entry. A small
// NS case's decoded entry is about 4 KB.
const MemoKeys = 1024

// verifiedEntry is the entry one file's bytes decoded to, by their digest.
type verifiedEntry struct {
	sum   [sha256.Size]byte
	entry *Entry
}

// Open opens (creating if needed) the ledger rooted at dir.
func Open(dir string) (*Ledger, error) {
	if dir == "" {
		return nil, errors.New("ledger: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: open: %w", err)
	}
	return &Ledger{dir: dir, verified: make(map[string]verifiedEntry)}, nil
}

// Dir returns the ledger's root directory.
func (l *Ledger) Dir() string { return l.dir }

// Stats returns a snapshot of the operation counters.
func (l *Ledger) Stats() Stats {
	return Stats{
		Hits:    l.hits.Load(),
		Misses:  l.misses.Load(),
		Corrupt: l.corrupt.Load(),
		Puts:    l.puts.Load(),
	}
}

// path maps a key to its file of one kind, sharded on the leading two hex
// digits.
func (l *Ledger) path(key string, k *kind) string {
	return filepath.Join(l.dir, key[:2], key+k.ext)
}

func validKey(key string) bool {
	if len(key) != keyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Checksum is the ledger's digest: the lowercase hex SHA-256 of b. It is
// the payload checksum every record carries (an entry's doubles as the
// serve ETag), and over a canonical case spec it is the content key.
func Checksum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// decode parses one record file into rec and verifies it against the key
// it is filed under. It reports false with a nil error for a foreign
// format version, which is not ours to serve or to remove; an error means
// the record is damaged and should be quarantined.
func decode(data []byte, key string, rec record) (bool, error) {
	if err := json.Unmarshal(data, rec); err != nil {
		return false, err
	}
	format, k, _, sum, payload := rec.header()
	if *format != FormatVersion {
		return false, nil
	}
	if *k != key {
		return false, fmt.Errorf("ledger: record key %q under file for %q", *k, key)
	}
	if len(payload) == 0 || *sum != Checksum(payload) {
		return false, errors.New("ledger: payload checksum mismatch")
	}
	return true, nil
}

// put stamps the record's header — format version, payload checksum, and
// creation time when unset — and publishes it as its key's file of kind k:
// a temp file, flushed, then renamed into place. Concurrent writers of one
// key race benignly (both write valid, equivalent records), and a crash
// mid-write leaves only a temp file for GC to sweep, never a damaged
// record under the final name.
func (l *Ledger) put(k *kind, rec record) error {
	format, key, created, sum, payload := rec.header()
	if !validKey(*key) {
		return fmt.Errorf("ledger: put: invalid key %q", *key)
	}
	if len(payload) == 0 {
		return fmt.Errorf("ledger: put %s%s: empty payload", *key, k.ext)
	}
	fail := func(err error) error { return fmt.Errorf("ledger: put %s%s: %w", *key, k.ext, err) }
	if err := faultinject.Fire(k.fault); err != nil {
		return fail(err)
	}
	*format, *sum = FormatVersion, Checksum(payload)
	if created.IsZero() {
		*created = time.Now().UTC()
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fail(err)
	}
	data = faultinject.Mangle(k.mangle, data)

	dst := l.path(*key, k)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+(*key)[:8]+".tmp-")
	if err != nil {
		return fail(err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fail(err)
	}
	// Flush file contents before the rename publishes the name, so a crash
	// cannot leave a published-but-empty record.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fail(err)
	}
	return nil
}

// lookup is how a verified read of one record file ended.
type lookup int

const (
	absent  lookup = iota // no file, or a foreign format version
	damaged               // failed verification and was quarantined
	found
)

// get reads its key's file of kind k and hands the bytes to verify, which
// decodes them: false with a nil error for a foreign format version, an
// error for damage. A damaged file is quarantined: removed, so the next
// writer can replace it, and counted in Stats.Corrupt. A hit bumps the
// file's mtime (best effort): GC's size budget evicts oldest-mtime first,
// so reads keep hot records out of the next size-budget sweep.
func (l *Ledger) get(key string, k *kind, verify func(data []byte) (bool, error)) (lookup, error) {
	if !validKey(key) {
		return absent, fmt.Errorf("ledger: invalid key %q", key)
	}
	path := l.path(key, k)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return absent, nil
	}
	if err != nil {
		return absent, fmt.Errorf("ledger: get %s%s: %w", key, k.ext, err)
	}
	ok, err := verify(data)
	if err != nil {
		l.corrupt.Add(1)
		_ = os.Remove(path)
		return damaged, nil
	}
	if !ok {
		return absent, nil
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return found, nil
}

// Get returns the stored entry for a key, or nil when the ledger has none.
// An entry that exists but fails verification — truncated or otherwise
// half-written, wrong key, checksum mismatch — is quarantined and reported
// as a miss, so the caller re-solves instead of serving a corrupt result.
// A different format version is a plain miss.
//
// Every call reads the file. When its bytes are those that last verified
// under the key through this Ledger (equal SHA-256), Get returns the entry
// they decoded to without decoding them again, so repeat reads of an
// unchanged file return the same *Entry. That entry is shared with every
// such caller and must be treated as read-only.
func (l *Ledger) Get(key string) (*Entry, error) {
	var e *Entry
	res, err := l.get(key, entryFile, func(data []byte) (bool, error) {
		sum := sha256.Sum256(data)
		l.mu.Lock()
		v, ok := l.verified[key]
		l.mu.Unlock()
		if ok && v.sum == sum {
			e = v.entry
			return true, nil
		}
		rec := new(Entry)
		ok, err := decode(data, key, rec)
		if ok {
			e = rec
			l.mu.Lock()
			if _, known := l.verified[key]; !known && len(l.verified) >= MemoKeys {
				for old := range l.verified { // an arbitrary key makes room
					delete(l.verified, old)
					break
				}
			}
			l.verified[key] = verifiedEntry{sum: sum, entry: rec}
			l.mu.Unlock()
		}
		return ok, err
	})
	switch {
	case err != nil:
		return nil, err
	case res == found:
		l.hits.Add(1)
		return e, nil
	case res == absent:
		l.misses.Add(1)
	}
	return nil, nil
}

// Put stores an entry, stamping its format version, checksum and (when
// unset) creation time, and then removes the key's partial-run checkpoint,
// which the result supersedes. That removal is best-effort: a leftover
// checkpoint is harmless, because Get answers first and a server's
// restart recovery drops a checkpoint whose result exists.
func (l *Ledger) Put(e *Entry) error {
	if e == nil {
		return errors.New("ledger: put: nil entry")
	}
	stored := *e
	if err := l.put(entryFile, &stored); err != nil {
		return err
	}
	l.puts.Add(1)
	_ = l.DeleteCheckpoint(e.Key)
	return nil
}

// GetCheckpoint returns the stored partial-run checkpoint for a key, or nil
// when there is none. Damage quarantines the file and reads as a miss,
// exactly like Get: a resumable state that cannot be verified is worth
// less than a cold start. A foreign format version is a plain miss.
func (l *Ledger) GetCheckpoint(key string) (*Checkpoint, error) {
	var c Checkpoint
	res, err := l.get(key, ckptFile, func(data []byte) (bool, error) { return decode(data, key, &c) })
	if res != found {
		return nil, err
	}
	return &c, nil
}

// PutCheckpoint stores (replacing) the partial-run checkpoint for a key,
// with the same atomic write as Put. Fault-injection points:
// "ledger.put-checkpoint" fails the write, "ledger.checkpoint-data" mangles
// the file bytes (simulating a torn write that the next read must catch).
func (l *Ledger) PutCheckpoint(c *Checkpoint) error {
	if c == nil {
		return errors.New("ledger: put checkpoint: nil checkpoint")
	}
	stored := *c
	return l.put(ckptFile, &stored)
}

// DeleteCheckpoint removes the partial-run checkpoint for a key. Absent
// keys are not an error.
func (l *Ledger) DeleteCheckpoint(key string) error {
	if !validKey(key) {
		return fmt.Errorf("ledger: invalid key %q", key)
	}
	if err := os.Remove(l.path(key, ckptFile)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// scan visits, in key order, every record file — named <key><ext> in its
// key's shard — and, with a nil kind and an empty key, every temp file a
// writer has open or abandoned. Other names are skipped. Key order comes
// free: os.ReadDir sorts by name, and keys are fixed-length hex.
func (l *Ledger) scan(visit func(key string, k *kind, path string, f fs.DirEntry)) error {
	shards, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() || len(shard.Name()) != 2 {
			continue
		}
		dir := filepath.Join(l.dir, shard.Name())
		files, err := os.ReadDir(dir)
		if err != nil {
			continue // racing removal of an emptied shard
		}
		for _, f := range files {
			path := filepath.Join(dir, f.Name())
			if strings.Contains(f.Name(), ".tmp-") {
				visit("", nil, path, f)
				continue
			}
			for _, k := range kinds {
				key, ok := strings.CutSuffix(f.Name(), k.ext)
				if ok && validKey(key) && key[:2] == shard.Name() {
					visit(key, k, path, f)
				}
			}
		}
	}
	return nil
}

// each decodes every valid record of kind k, in key order. Damaged files
// are skipped (the next read of the key quarantines them), and so are
// foreign format versions.
func (l *Ledger) each(k *kind, keep func(record)) error {
	return l.scan(func(key string, fk *kind, path string, _ fs.DirEntry) {
		if fk != k {
			return
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return // racing deletion
		}
		rec := k.newRecord()
		if ok, _ := decode(data, key, rec); ok {
			keep(rec)
		}
	})
}

// Keys returns every key with a stored entry, in sorted order, without
// decoding entries.
func (l *Ledger) Keys() ([]string, error) {
	var keys []string
	err := l.scan(func(key string, k *kind, _ string, _ fs.DirEntry) {
		if k == entryFile {
			keys = append(keys, key)
		}
	})
	return keys, err
}

// Entries decodes every valid stored entry, sorted by key.
func (l *Ledger) Entries() ([]*Entry, error) {
	var out []*Entry
	err := l.each(entryFile, func(r record) { out = append(out, r.(*Entry)) })
	return out, err
}

// Checkpoints decodes every valid stored partial-run checkpoint, sorted by
// key — the restart-recovery scan a server runs to find interrupted work.
func (l *Ledger) Checkpoints() ([]*Checkpoint, error) {
	var out []*Checkpoint
	err := l.each(ckptFile, func(r record) { out = append(out, r.(*Checkpoint)) })
	return out, err
}

// GC sweeps the ledger in one scan. It removes the entries and checkpoints
// created before the cutoff (a zero cutoff keeps all of them), every record
// that fails verification whatever its age — it could never be served or
// resumed from — and temp files that crashed writers abandoned. Then, with
// a positive maxBytes, it evicts what that sweep kept until the ledger's
// size (entries plus checkpoints) fits the budget: least recently accessed
// first, with every checkpoint before any result entry — a checkpoint saves
// part of a solve, a result all of it. Reads bump mtimes (see Get /
// GetCheckpoint), so mtime order approximates LRU. GC reports how many
// entries and checkpoints it removed; temp files are not counted. A dry
// sweep removes nothing and reports what a real one would remove.
func (l *Ledger) GC(before time.Time, maxBytes int64, dry bool) (entries, checkpoints int, err error) {
	remove := func(path string, k *kind) bool {
		if !dry && os.Remove(path) != nil {
			return false
		}
		if k == entryFile {
			entries++
		} else {
			checkpoints++
		}
		return true
	}
	var kept []gcFile
	var total int64
	err = l.scan(func(key string, k *kind, path string, f fs.DirEntry) {
		info, err := f.Info()
		if err != nil {
			return // racing deletion
		}
		if k == nil {
			// A writer that crashed between CreateTemp and rename; any live
			// writer holds its temp open for well under a second, so only
			// clearly abandoned files are swept.
			if time.Since(info.ModTime()) > time.Minute && !dry {
				_ = os.Remove(path)
			}
			return
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return // racing deletion
		}
		rec := k.newRecord()
		if ok, derr := decode(data, key, rec); derr == nil {
			_, _, created, _, _ := rec.header()
			if !ok || before.IsZero() || !created.Before(before) {
				// A foreign format, or not expired: kept for the size budget.
				kept = append(kept, gcFile{path: path, size: info.Size(), mtime: info.ModTime(), kind: k})
				total += info.Size()
				return
			}
		}
		remove(path, k)
	})
	if err != nil || maxBytes <= 0 {
		return entries, checkpoints, err
	}
	// Checkpoints strictly before entries; oldest access first within each.
	sort.Slice(kept, func(i, j int) bool {
		if ci, cj := kept[i].kind == ckptFile, kept[j].kind == ckptFile; ci != cj {
			return ci
		}
		return kept[i].mtime.Before(kept[j].mtime)
	})
	for _, f := range kept {
		if total <= maxBytes {
			break
		}
		if remove(f.path, f.kind) {
			total -= f.size
		}
	}
	return entries, checkpoints, nil
}

// gcFile is one candidate of GC's size-budget eviction.
type gcFile struct {
	path  string
	size  int64
	mtime time.Time
	kind  *kind
}
