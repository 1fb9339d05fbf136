// Package cache is a deterministic, content-addressed result cache for
// experiment cells. Nine PRs of engine work made every simulation cell a
// pure function of its outcome-relevant inputs — byte-identical across
// scheduler implementation, shard count, worker count, streaming, and
// spill (pinned by the golden matrix). This package banks that
// guarantee: a cell's result is stored under the SHA-256 of a canonical,
// versioned encoding of those inputs plus a code epoch, so a repeated
// sweep replays from disk instead of recomputing ~10^7 events per cell.
//
// Contracts:
//
//   - Keys are built by the caller (internal/exp) from outcome-relevant
//     fields only; engine knobs that the golden matrix proves invisible
//     (shards, spill chunk, parallelism) are excluded, so a result
//     computed on one engine configuration hits on every other.
//   - Values are stats.Summary plus the row's extra metrics, encoded
//     with float64s as raw IEEE-754 bits — no JSON round-trip, so NaN
//     payloads and negative zero survive and a byte-compare of two
//     encodings is exactly a bit-compare of two results.
//   - Writes are atomic (temp file + rename in the same directory), so
//     readers never see a torn entry even with concurrent writers.
//   - Any defect in a stored entry — truncation, garbage, a schema or
//     key mismatch — degrades to a miss with a warning. The cache never
//     fails a run.
//   - Verify mode recomputes on every hit and byte-compares the stored
//     encoding against the fresh one: a standing cross-machine (and
//     cross-engine) determinism tripwire.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"ppt/internal/stats"
)

// Key addresses one cell result: SHA-256 over the schema version, the
// code epoch, and the caller's canonical cell descriptor.
type Key [sha256.Size]byte

func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Value is one cached cell result: the FCT summary plus the cell's
// extra metrics (utilization, drops, efficiency...). Extra may be nil.
type Value struct {
	Sum   stats.Summary
	Extra map[string]float64
}

// clone returns a Value whose Extra map is private to the caller, so
// cells that landed on the same key can't alias each other's rows.
func (v Value) clone() Value {
	if v.Extra == nil {
		return v
	}
	m := make(map[string]float64, len(v.Extra))
	for k, x := range v.Extra {
		m[k] = x
	}
	v.Extra = m
	return v
}

// Stats is a snapshot of the cache's accounting. Counter fields are
// totals since Open (or deltas, from Delta); Bytes is the absolute size
// of the cache directory's entries.
type Stats struct {
	Hits       uint64 // lookups answered from disk
	Misses     uint64 // lookups that computed and stored
	Shared     uint64 // lookups answered by an identical in-flight cell
	Stores     uint64 // entries written
	Verified   uint64 // verify-mode recomputations compared
	Mismatches uint64 // verify-mode comparisons that diverged
	Evictions  uint64 // entries removed by the startup size cap
	Bytes      int64  // bytes of entries on disk
}

// Delta returns s minus a previous snapshot, counter-wise. Bytes stays
// absolute: it describes the directory, not an interval.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Hits:       s.Hits - prev.Hits,
		Misses:     s.Misses - prev.Misses,
		Shared:     s.Shared - prev.Shared,
		Stores:     s.Stores - prev.Stores,
		Verified:   s.Verified - prev.Verified,
		Mismatches: s.Mismatches - prev.Mismatches,
		Evictions:  s.Evictions - prev.Evictions,
		Bytes:      s.Bytes,
	}
}

func (s Stats) String() string {
	out := fmt.Sprintf("%d hits, %d misses, %d stores, %.1f MB",
		s.Hits+s.Shared, s.Misses, s.Stores, float64(s.Bytes)/1e6)
	if s.Verified > 0 || s.Mismatches > 0 {
		out += fmt.Sprintf(", %d verified, %d MISMATCHES", s.Verified, s.Mismatches)
	}
	if s.Evictions > 0 {
		out += fmt.Sprintf(", %d evicted", s.Evictions)
	}
	return out
}

// Cache is one result-cache directory. Safe for concurrent use by the
// experiment worker pool; multiple processes may share a directory (the
// atomic rename keeps entries whole; last writer wins).
type Cache struct {
	dir   string
	epoch string

	hits, misses, shared, stores    atomic.Uint64
	verified, mismatches, evictions atomic.Uint64
	bytes                           atomic.Int64

	// inflight dedups identical keys being computed concurrently inside
	// one invocation: the first cell computes, siblings wait and share.
	mu       sync.Mutex
	inflight map[Key]*flight
}

type flight struct {
	done chan struct{}
	val  Value
	ok   bool // false when the computing cell panicked
}

// Open prepares dir as a cache directory: creates it, probes
// writability (so a bad -cache flag fails in milliseconds, not after a
// long run), and — when maxBytes > 0 — evicts least-recently-modified
// entries until the remainder fits the cap.
func Open(dir string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	probe, err := os.CreateTemp(dir, "probe-*")
	if err != nil {
		return nil, fmt.Errorf("cache: directory %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())

	c := &Cache{dir: dir, epoch: codeEpoch(), inflight: map[Key]*flight{}}
	if err := c.sweep(maxBytes); err != nil {
		return nil, err
	}
	return c, nil
}

// sweep totals the existing entries and applies the startup size cap:
// mtime-LRU eviction until total <= maxBytes (0 = uncapped).
func (c *Cache) sweep(maxBytes int64) error {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	type entry struct {
		name  string
		size  int64
		mtime int64
	}
	var entries []entry
	var total int64
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != fileSuffix {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with a concurrent eviction; skip
		}
		entries = append(entries, entry{e.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	if maxBytes > 0 && total > maxBytes {
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].mtime != entries[j].mtime {
				return entries[i].mtime < entries[j].mtime
			}
			return entries[i].name < entries[j].name // stable under equal stamps
		})
		for _, e := range entries {
			if total <= maxBytes {
				break
			}
			if err := os.Remove(filepath.Join(c.dir, e.name)); err == nil {
				total -= e.size
				c.evictions.Add(1)
			}
		}
	}
	c.bytes.Store(total)
	return nil
}

// codeEpoch identifies the code that computed a result: the VCS
// revision plus a dirty marker, read from the binary's build info. A
// build without VCS stamping (go test binaries, `go run` in some
// configurations) reports "unversioned": such builds share an epoch, so
// stale-across-code-changes entries are possible there — that is what
// verify mode exists to catch, and schemaVersion is the manual escape
// hatch when the entry layout itself changes.
func codeEpoch() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unversioned"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unversioned"
	}
	if dirty {
		return rev + "+dirty"
	}
	return rev
}

// SetEpoch overrides the code epoch (tests; deliberate cross-build
// sharing). Must be called before any NewKey.
func (c *Cache) SetEpoch(e string) { c.epoch = e }

// NewKey derives the content address of a cell from its canonical
// descriptor. The schema version and code epoch are mixed in, so an
// entry layout change or a code change (on VCS-stamped builds)
// invalidates every old entry by construction.
func (c *Cache) NewKey(desc string) Key {
	h := sha256.New()
	fmt.Fprintf(h, "pptsim-cell/v%d\nepoch=%s\n", schemaVersion, c.epoch)
	io.WriteString(h, desc)
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats snapshots the accounting.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Shared:     c.shared.Load(),
		Stores:     c.stores.Load(),
		Verified:   c.verified.Load(),
		Mismatches: c.mismatches.Load(),
		Evictions:  c.evictions.Load(),
		Bytes:      c.bytes.Load(),
	}
}

func (c *Cache) path(key Key) string {
	return filepath.Join(c.dir, key.String()+fileSuffix)
}

// Get loads the entry for key. Every defect — absence, truncation,
// garbage, a schema or key mismatch — reads as (zero, false); corrupt
// files are removed and warned about, never fatal. Get does not touch
// the hit/miss counters; Do owns the accounting.
func (c *Cache) Get(key Key) (Value, bool) {
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "cache: warning: unreadable entry %s: %v (treating as miss)\n", key, err)
		}
		return Value{}, false
	}
	v, err := decodeRecord(data, key)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cache: warning: discarding entry %s: %v (treating as miss)\n", key, err)
		os.Remove(path) // best-effort hygiene; a failed remove re-warns next time
		return Value{}, false
	}
	return v, true
}

// Put stores v under key atomically: the full record is written to a
// temp file in the cache directory and renamed into place, so a
// concurrent reader (or a racing writer) sees either the old complete
// entry or the new complete entry. Errors warn and drop the store —
// a full disk degrades the cache, not the run.
func (c *Cache) Put(key Key, v Value) {
	rec := encodeRecord(schemaVersion, key, v)
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cache: warning: cannot store %s: %v\n", key, err)
		return
	}
	_, werr := tmp.Write(rec)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		// Replacing an entry (verify rewrites, racing writers) must not
		// double-count its bytes.
		var old int64
		if info, err := os.Stat(c.path(key)); err == nil {
			old = info.Size()
		}
		if werr = os.Rename(tmp.Name(), c.path(key)); werr == nil {
			c.stores.Add(1)
			c.bytes.Add(int64(len(rec)) - old)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "cache: warning: cannot store %s: %v\n", key, werr)
	os.Remove(tmp.Name())
}

// Do answers one cell: from disk when the key hits, from an identical
// in-flight computation when one exists, and by calling compute (then
// storing) otherwise. In verify mode a hit additionally recomputes and
// byte-compares the canonical encodings, reporting a divergence through
// Outcome.Mismatch (and returning the fresh value, which is the ground
// truth); the stored entry is left in place as evidence.
func (c *Cache) Do(key Key, verify bool, compute func() Value) (Value, Outcome) {
	if v, ok := c.Get(key); ok {
		c.hits.Add(1)
		if !verify {
			return v, Outcome{Hit: true}
		}
		fresh := compute()
		c.verified.Add(1)
		if !payloadEqual(v, fresh) {
			c.mismatches.Add(1)
			return fresh, Outcome{Hit: true, Mismatch: true}
		}
		return v, Outcome{Hit: true}
	}

	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.ok {
			c.shared.Add(1)
			return f.val.clone(), Outcome{Hit: true, Shared: true}
		}
		// The computing cell panicked; fall through to an independent
		// computation rather than propagating its failure.
	} else {
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()
		defer func() {
			// Runs on compute panics too: siblings must never block on a
			// flight whose owner died (ok stays false).
			c.mu.Lock()
			delete(c.inflight, key)
			c.mu.Unlock()
			close(f.done)
		}()
		v := compute()
		f.val, f.ok = v.clone(), true
		c.misses.Add(1)
		c.Put(key, v)
		return v, Outcome{}
	}
	v := compute()
	c.misses.Add(1)
	c.Put(key, v)
	return v, Outcome{}
}

// Outcome reports how Do answered.
type Outcome struct {
	Hit      bool // answered from disk (or a shared in-flight cell)
	Shared   bool // specifically from an identical in-flight cell
	Mismatch bool // verify mode: the stored entry diverged from fresh
}

// payloadEqual bit-compares two values through their canonical
// encodings: equality of every Summary field and of every extra's raw
// IEEE-754 bits (so NaN == NaN here, and +0 != -0).
func payloadEqual(a, b Value) bool {
	return string(encodePayload(a)) == string(encodePayload(b))
}
