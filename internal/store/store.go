// Package store is a content-addressed on-disk result cache. Entries are
// keyed by a SHA-256 digest of a canonical description of the computation
// (the caller decides what to hash; internal/exp hashes a fully-resolved
// simulation spec plus a schema version) and hold an opaque payload.
//
// The store is crash-safe and corruption-tolerant by construction:
//
//   - writes go to a temp file in the store directory and are renamed into
//     place, so readers never observe a partial entry;
//   - every entry carries a header with the payload's length and SHA-256,
//     verified on read — a truncated or bit-flipped entry is deleted and
//     reported as a miss, turning corruption into a recompute;
//   - an optional byte cap evicts the least-recently-used entries after
//     each write;
//   - a write failure (ENOSPC, EIO, a yanked volume) flips the store into
//     a sticky read-only degraded state instead of failing work: Gets
//     keep serving, Puts fail fast without touching the disk, and
//     Degraded()/Stats expose the reason so a serving layer can report
//     itself degraded rather than dead. The state clears only on a fresh
//     Open (typically a process restart onto a repaired disk).
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Key addresses one entry: the SHA-256 of the caller's canonical
// description of the computation.
type Key [sha256.Size]byte

// KeyOf hashes a canonical description into a Key.
func KeyOf(canonical []byte) Key { return sha256.Sum256(canonical) }

// String returns the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses a 64-hex-digit key.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("store: malformed key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// header is the first line of every entry file: magic, payload SHA-256,
// payload length. The key is the file name, so the header binds the
// content; together a read can detect truncation, bit flips, and renamed
// foreign files.
const magic = "dsarpstore1"

// Kind partitions the store into namespaces with different retention
// priorities. The two kinds never collide even under the same Key: they
// live in separate directory trees.
type Kind int

const (
	// KindResult entries are completed computation outputs — the store's
	// primary cargo, evicted last.
	KindResult Kind = iota
	// KindSnapshot entries are resumable mid-computation checkpoints. They
	// are pure accelerators (losing one costs recompute time, never
	// correctness), so the byte cap evicts every snapshot before it touches
	// a single result.
	KindSnapshot
)

// snapDir is the subdirectory holding KindSnapshot entries; KindResult
// entries keep the historical two-level layout at the store root, so
// existing stores are read unchanged.
const snapDir = "snap"

func (k Kind) String() string {
	if k == KindSnapshot {
		return "snapshot"
	}
	return "result"
}

// Options configure a store.
type Options struct {
	// MaxBytes caps the store's total payload+header size; 0 means
	// unlimited. When a write pushes the store over the cap, the
	// least-recently-used entries are evicted until it fits (the entry just
	// written is never evicted by its own write).
	MaxBytes int64
	// Generation names the schema generation of the keys the caller
	// writes (internal/exp passes exp.SchemaVersion — the same string
	// salted into every key). It is recorded in a manifest file in the
	// store directory. When Open finds a manifest naming a different
	// generation, every entry is garbage: its key was salted with the old
	// generation, so no current-generation Get can ever address it again.
	// Open sweeps them immediately — reporting the reclaimed space in
	// Stats.Expired/ExpiredBytes — instead of letting dead entries wait
	// out the LRU cap. A store without a manifest (created before
	// generations existed) is adopted as current. Empty disables the
	// mechanism.
	Generation string
	// FailWrites, if non-nil, is consulted before each Put writes to disk;
	// a non-nil return injects that error as a write failure (and so flips
	// the store degraded). Fault-injection hook for chaos testing —
	// production stores leave it nil.
	FailWrites func() error
}

// Stats describe the store's state and activity since Open. The JSON tags
// are part of the serving layer's /v1/stats wire format.
type Stats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Per-kind splits of Entries/Bytes: results are the durable cargo,
	// snapshots the evict-first checkpoint namespace.
	ResultEntries   int   `json:"result_entries"`
	ResultBytes     int64 `json:"result_bytes"`
	SnapshotEntries int   `json:"snapshot_entries"`
	SnapshotBytes   int64 `json:"snapshot_bytes"`
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Puts            int64 `json:"puts"`
	Corrupt         int64 `json:"corrupt"` // entries deleted because verification failed
	Evicted         int64 `json:"evicted"` // entries removed by the byte cap
	WriteErrs       int64 `json:"write_errs"`
	// Expired/ExpiredBytes count the entries swept at Open because the
	// store's manifest named an older schema generation than
	// Options.Generation (their keys can never be addressed again).
	Expired      int64 `json:"expired"`
	ExpiredBytes int64 `json:"expired_bytes"`
	// Degraded reports the sticky read-only state a write failure flips
	// the store into; DegradedReason is the first failure's error text.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

type entry struct {
	size  int64
	stamp int64 // logical LRU clock; higher = more recently used
}

// entryKey indexes one entry: the same Key may exist under both kinds
// (they are separate namespaces on disk).
type entryKey struct {
	key  Key
	kind Kind
}

// Store is a content-addressed cache rooted at one directory. All methods
// are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[entryKey]*entry
	bytes   int64
	// kindEntries/kindBytes split the totals by namespace for Stats and
	// for the snapshot-first eviction order.
	kindEntries [2]int
	kindBytes   [2]int64
	clock       int64
	stats       Stats
	degraded    string // non-empty = read-only, value is the reason
}

// Open creates (if necessary) and indexes the store rooted at dir. With
// Options.Generation set, entries recorded under an older generation are
// swept here (see Options.Generation); check Stats().Expired afterwards to
// report the reclaimed space.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, entries: map[entryKey]*entry{}}
	// sweepHorizon is taken before the manifest is read: during a rolling
	// generation bump across processes sharing the directory, a sibling
	// that already published the new manifest may be writing
	// current-generation entries while this process (which read the old
	// manifest first) sweeps. Those entries are strictly newer than the
	// horizon, so the mtime gate below spares them; genuinely stale
	// entries predate the bump and fall below it.
	sweepHorizon := time.Now()
	sweep, writeManifest, err := s.readGeneration()
	if err != nil {
		return nil, err
	}
	type found struct {
		key   entryKey
		size  int64
		mtime int64
	}
	var idx []found
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			// Leftover temp file from a crashed writer: never published.
			// Age-gated so opening a store another process is actively
			// writing to does not reap its in-flight temp files.
			if info, err := d.Info(); err == nil && time.Since(info.ModTime()) > time.Hour {
				os.Remove(path)
			}
			return nil
		}
		key, err := ParseKey(filepath.Base(filepath.Dir(path)) + name)
		if err != nil {
			return nil // foreign file (the manifest included); leave it alone
		}
		kind := KindResult
		if rel, rerr := filepath.Rel(dir, path); rerr == nil &&
			strings.HasPrefix(rel, snapDir+string(filepath.Separator)) {
			kind = KindSnapshot
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if sweep && info.ModTime().Before(sweepHorizon) {
			// Old-generation entry: unreachable by any current key.
			os.Remove(path)
			s.stats.Expired++
			s.stats.ExpiredBytes += info.Size()
			return nil
		}
		idx = append(idx, found{key: entryKey{key, kind}, size: info.Size(), mtime: info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Seed the LRU clock from on-disk mtimes so pruning survives restarts.
	sort.Slice(idx, func(i, j int) bool { return idx[i].mtime < idx[j].mtime })
	for _, f := range idx {
		s.clock++
		s.entries[f.key] = &entry{size: f.size, stamp: s.clock}
		s.bytes += f.size
		s.kindEntries[f.key.kind]++
		s.kindBytes[f.key.kind] += f.size
	}
	// The manifest is published only after a completed sweep: a crash
	// mid-sweep leaves the old manifest in place, so the next Open sweeps
	// the remainder instead of trusting stale entries.
	if writeManifest {
		if err := s.writeManifest(filepath.Join(dir, manifestName)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// manifestName is the per-store generation record. It lives at the store
// root, where its name can never collide with an entry (entries are
// two-level hex paths) and ParseKey skips it during indexing.
const manifestName = "MANIFEST"

const manifestMagic = "dsarpstore-manifest1"

// readGeneration reads the store's manifest and reports whether existing
// entries belong to an older generation and must be swept, and whether
// the manifest needs (re)writing after indexing. A store predating
// manifests (entries but no MANIFEST file) is adopted as current: its
// entries were written by a caller that did not record generations, and
// deleting a possibly-warm store on upgrade would be strictly worse than
// trusting it.
func (s *Store) readGeneration() (sweep, write bool, err error) {
	if s.opts.Generation == "" {
		return false, false, nil
	}
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	switch {
	case err == nil:
		var magic, gen string
		if _, err := fmt.Sscanf(string(data), "%s %s", &magic, &gen); err != nil || magic != manifestMagic {
			// Unreadable manifest: rewrite it, keep the entries (same
			// trust call as the missing-manifest case).
			return false, true, nil
		}
		return gen != s.opts.Generation, gen != s.opts.Generation, nil
	case os.IsNotExist(err):
		return false, true, nil
	default:
		return false, false, fmt.Errorf("store: %w", err)
	}
}

// writeManifest atomically publishes the current generation.
func (s *Store) writeManifest(path string) error {
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := fmt.Fprintf(tmp, "%s %s\n", manifestMagic, s.opts.Generation)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", werr)
	}
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

const tmpPrefix = ".tmp-"

// path returns the entry file for a key: two-level fan-out on the first
// hex byte (dir/ab/cdef... for results, dir/snap/ab/cdef... for
// snapshots).
func (s *Store) path(ek entryKey) string {
	hexk := ek.key.String()
	if ek.kind == KindSnapshot {
		return filepath.Join(s.dir, snapDir, hexk[:2], hexk[2:])
	}
	return filepath.Join(s.dir, hexk[:2], hexk[2:])
}

// EntryPath reports where a result entry for key is (or would be) stored.
// Diagnostic only; the file format is private to this package.
func (s *Store) EntryPath(k Key) string { return s.path(entryKey{k, KindResult}) }

// Get returns the result payload stored under key; see GetKind.
func (s *Store) Get(k Key) ([]byte, bool) { return s.GetKind(k, KindResult) }

// GetKind returns the payload stored under key in the given namespace. A
// missing, truncated, or corrupted entry is a miss; corrupt files are
// deleted so the next Put can heal the slot. The disk is probed even for
// keys absent from the Open-time index, so entries written by another
// process sharing the directory are found; file I/O and hashing happen
// outside the store lock, so concurrent reads do not serialize on each
// other.
func (s *Store) GetKind(k Key, kind Kind) ([]byte, bool) {
	ek := entryKey{k, kind}
	path := s.path(ek)
	s.mu.Lock()
	e, indexed := s.entries[ek]
	s.mu.Unlock()

	payload, err := readEntry(path)
	if err != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		cur, ok := s.entries[ek]
		switch {
		case ok && indexed && cur == e:
			// The entry we indexed is corrupt: drop index and file.
			s.dropLocked(ek, cur)
			s.stats.Corrupt++
		case ok:
			// A concurrent in-process Put healed the slot since we looked;
			// leave it alone.
		case os.IsNotExist(err):
			// Plain miss: nothing on disk.
		default:
			// A corrupt file we never indexed (written by another process
			// sharing the directory): delete it too, so its slot heals.
			os.Remove(path)
			s.stats.Corrupt++
		}
		s.stats.Misses++
		return nil, false
	}

	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	s.mu.Lock()
	s.clock++
	if cur, ok := s.entries[ek]; ok {
		cur.stamp = s.clock
	} else {
		// Found on disk but not in the index: another process wrote it.
		s.entries[ek] = &entry{size: size, stamp: s.clock}
		s.bytes += size
		s.kindEntries[ek.kind]++
		s.kindBytes[ek.kind] += size
	}
	s.stats.Hits++
	s.mu.Unlock()
	// Bump the mtime (best effort) so LRU eviction order survives a
	// restart, not just write order.
	now := time.Now()
	os.Chtimes(path, now, now)
	return payload, true
}

// readEntry reads and verifies one entry file.
func readEntry(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	head, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("store: short header: %w", err)
	}
	var gotMagic, sum string
	var n int64
	if _, err := fmt.Sscanf(head, "%s %s %d", &gotMagic, &sum, &n); err != nil || gotMagic != magic || n < 0 {
		return nil, fmt.Errorf("store: malformed header %q", head)
	}
	// The declared length is untrusted until the hash checks out: bound it
	// by the file's actual size so a corrupt header cannot demand an
	// absurd allocation.
	if n > fi.Size() {
		return nil, fmt.Errorf("store: header claims %d payload bytes in a %d-byte file", n, fi.Size())
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("store: truncated payload: %w", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("store: trailing data after payload")
	}
	h := sha256.Sum256(payload)
	if hex.EncodeToString(h[:]) != sum {
		return nil, fmt.Errorf("store: payload hash mismatch")
	}
	return payload, nil
}

// Put stores a result payload under key; see PutKind.
func (s *Store) Put(k Key, payload []byte) error { return s.PutKind(k, KindResult, payload) }

// PutKind stores payload under key in the given namespace, atomically
// replacing any existing entry, then applies the byte cap. Like Get, the
// file I/O happens outside the store lock; only the index update takes it.
//
// A write failure flips the store into a sticky read-only degraded state:
// this Put and every later one return an error without touching the disk,
// while Gets keep serving whatever is already durable. Callers that treat
// Put errors as "result stays in memory" (the runner does) thereby keep
// completing work at full correctness on a dead disk.
func (s *Store) PutKind(k Key, kind Kind, payload []byte) error {
	s.mu.Lock()
	if s.degraded != "" {
		reason := s.degraded
		s.stats.WriteErrs++
		s.mu.Unlock()
		return fmt.Errorf("store: degraded (read-only): %s", reason)
	}
	s.mu.Unlock()

	var buf bytes.Buffer
	h := sha256.Sum256(payload)
	fmt.Fprintf(&buf, "%s %s %d\n", magic, hex.EncodeToString(h[:]), len(payload))
	buf.Write(payload)

	ek := entryKey{k, kind}
	path := s.path(ek)
	err := func() error {
		if fail := s.opts.FailWrites; fail != nil {
			if err := fail(); err != nil {
				return err
			}
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
		if err != nil {
			return err
		}
		if _, err := tmp.Write(buf.Bytes()); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		return nil
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.WriteErrs++
		if s.degraded == "" {
			s.degraded = err.Error()
		}
		return fmt.Errorf("store: %w", err)
	}
	size := int64(buf.Len())
	if old, ok := s.entries[ek]; ok {
		s.bytes -= old.size
		s.kindEntries[kind]--
		s.kindBytes[kind] -= old.size
	}
	s.clock++
	s.entries[ek] = &entry{size: size, stamp: s.clock}
	s.bytes += size
	s.kindEntries[kind]++
	s.kindBytes[kind] += size
	s.stats.Puts++
	s.pruneLocked(ek)
	return nil
}

// pruneLocked evicts entries until the store fits MaxBytes, sparing keep
// (the entry the caller just wrote). Snapshots go first — every snapshot
// is merely a recompute accelerator, so all of them are sacrificed (in LRU
// order) before the first result is; only then does the LRU sweep touch
// results.
func (s *Store) pruneLocked(keep entryKey) {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.bytes > s.opts.MaxBytes && len(s.entries) > 1 {
		var victim entryKey
		var victimE *entry
		for k, e := range s.entries {
			if k == keep {
				continue
			}
			switch {
			case victimE == nil:
			case k.kind != victim.kind:
				// Prefer the snapshot regardless of recency.
				if k.kind != KindSnapshot {
					continue
				}
			case e.stamp >= victimE.stamp:
				continue
			}
			victim, victimE = k, e
		}
		if victimE == nil {
			return
		}
		s.dropLocked(victim, victimE)
		s.stats.Evicted++
	}
}

// dropLocked removes an entry from the index and disk.
func (s *Store) dropLocked(ek entryKey, e *entry) {
	os.Remove(s.path(ek))
	delete(s.entries, ek)
	s.bytes -= e.size
	s.kindEntries[ek.kind]--
	s.kindBytes[ek.kind] -= e.size
}

// Contains reports whether a result entry exists for key; see ContainsKind.
func (s *Store) Contains(k Key) bool { return s.ContainsKind(k, KindResult) }

// ContainsKind reports whether an entry exists for key in the given
// namespace, without reading its payload, verifying it, or touching LRU
// state: a cheap existence probe for warm-status displays. The disk is
// consulted when the index misses, so entries written by other processes
// sharing the directory count. A corrupt entry may report true here and
// still miss on Get.
func (s *Store) ContainsKind(k Key, kind Kind) bool {
	ek := entryKey{k, kind}
	s.mu.Lock()
	_, ok := s.entries[ek]
	s.mu.Unlock()
	if ok {
		return true
	}
	_, err := os.Stat(s.path(ek))
	return err == nil
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Degraded reports whether a write failure has flipped the store
// read-only, and why. The state is sticky for the store's lifetime; a
// fresh Open on a repaired disk starts healthy.
func (s *Store) Degraded() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded != "", s.degraded
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	st.ResultEntries = s.kindEntries[KindResult]
	st.ResultBytes = s.kindBytes[KindResult]
	st.SnapshotEntries = s.kindEntries[KindSnapshot]
	st.SnapshotBytes = s.kindBytes[KindSnapshot]
	st.Degraded = s.degraded != ""
	st.DegradedReason = s.degraded
	return st
}
