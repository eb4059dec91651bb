// Package resultcache stores encoded job results under their spec keys:
// a two-tier cache — an in-memory LRU over a content-addressed on-disk
// store — exploiting the simulator's determinism (a spec key fully
// determines its result, so entries never invalidate; they only age out
// of the memory tier or get evicted when corrupt).
//
// Disk layout under the cache directory:
//
//	manifest.json        format + key-scheme stamp (see Open)
//	objects/ab/<hex>     one entry per key, sharded by the first byte
//
// Every entry file carries a magic and a SHA-256 digest of its payload;
// Get verifies the digest and evicts (deletes) entries that fail it, so
// a torn write or bit rot becomes a cache miss and a re-run, never a
// wrong result. Writes go through a temp file and an atomic rename, so
// a crashed writer can leave at worst an orphaned temp file.
package resultcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"cyclops/internal/obs"
)

// Key is a job spec's content hash (SHA-256 over the canonical spec
// encoding plus the semantics version).
type Key [sha256.Size]byte

// String returns the key as lowercase hex, the on-disk entry name.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey reads the hex form back into a Key.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("resultcache: %q is not a %d-byte hex key", s, len(k))
	}
	copy(k[:], b)
	return k, nil
}

// entryMagic heads every on-disk entry: format name + version. Bump the
// version when the entry framing changes (the payload schema is covered
// by the spec key, not by this).
const entryMagic = "CYCR1\n"

// ManifestName is the stamp file marking a directory as a result cache.
const ManifestName = "manifest.json"

// manifest is the content of ManifestName: enough to recognise the
// directory as ours and to refuse mixing incompatible key schemes.
type manifest struct {
	Format    string `json:"format"`
	KeyScheme string `json:"key_scheme"`
}

// manifestFormat identifies the directory layout.
const manifestFormat = "cyclops-result-cache/1"

// Counters is a snapshot of the cache's activity since Open.
type Counters struct {
	// MemHits and DiskHits split Get hits by serving tier; a disk hit
	// also promotes the entry into the memory tier.
	MemHits, DiskHits uint64
	// Misses counts Gets that found nothing in either tier.
	Misses uint64
	// Corrupt counts disk entries evicted because their digest or
	// framing failed verification.
	Corrupt uint64
	// Evictions counts memory-tier LRU evictions (disk entries persist).
	Evictions uint64
	// Puts counts successful stores.
	Puts uint64
}

// Cache is the two-tier store. Safe for concurrent use.
type Cache struct {
	dir string // "" = memory-only

	mu     sync.Mutex
	lru    *list.List // front = most recent; values are *memEntry
	index  map[Key]*list.Element
	memCap int // bytes budget for the memory tier
	memUse int

	memHits, diskHits, misses, corrupt, evictions, puts atomic.Uint64

	// diskBytes tracks the disk tier's payload footprint (framed entry
	// sizes): seeded by a directory walk at Open, then maintained by
	// writes and corrupt-entry evictions — the /metrics byte gauge.
	diskBytes atomic.Int64
}

type memEntry struct {
	key  Key
	data []byte
}

// DefaultMemBytes is the default memory-tier budget: enough for
// thousands of table-sized results while staying far below any
// simulation's own footprint.
const DefaultMemBytes = 64 << 20

// OpenMemory returns a memory-only cache (no disk tier) with the given
// byte budget (<= 0 selects DefaultMemBytes).
func OpenMemory(memBytes int) *Cache {
	if memBytes <= 0 {
		memBytes = DefaultMemBytes
	}
	return &Cache{
		lru:    list.New(),
		index:  make(map[Key]*list.Element),
		memCap: memBytes,
	}
}

// Open attaches the on-disk tier rooted at dir, creating it if needed,
// with a memory tier of memBytes on top. keyScheme is the spec-key
// derivation stamp (job.SemanticsVersion): it is recorded in the
// manifest on first use and must match on every later open.
//
// Open refuses a non-empty directory that lacks the manifest — pointing
// a cache at a directory holding unrelated files must fail loudly
// instead of treating (or eventually overwriting) them as cache
// entries — and refuses a manifest recording a different key scheme,
// since its entries were keyed under different semantics.
func Open(dir, keyScheme string, memBytes int) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if err := checkDir(dir, keyScheme); err != nil {
		return nil, err
	}
	c := OpenMemory(memBytes)
	c.dir = dir
	c.diskBytes.Store(scanDiskBytes(dir))
	return c, nil
}

// scanDiskBytes sums the existing entry files so the byte gauge starts
// truthful on a warm cache. Orphaned temp files are skipped: they are
// not entries and a crashed writer's leftovers should not inflate the
// gauge.
func scanDiskBytes(dir string) int64 {
	var total int64
	root := filepath.Join(dir, "objects")
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || len(d.Name()) != 2*sha256.Size {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// checkDir validates or initialises the cache directory and manifest.
func checkDir(dir, keyScheme string) error {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("resultcache: %w", err)
		}
		entries = nil
	} else if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	mpath := filepath.Join(dir, ManifestName)
	data, merr := os.ReadFile(mpath)
	switch {
	case merr == nil:
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil || m.Format != manifestFormat {
			return fmt.Errorf("resultcache: %s is not a %s manifest", mpath, manifestFormat)
		}
		if m.KeyScheme != keyScheme {
			return fmt.Errorf("resultcache: %s was written under key scheme %q, this build uses %q; use a fresh directory (old entries could never match anyway)",
				dir, m.KeyScheme, keyScheme)
		}
		return nil
	case os.IsNotExist(merr):
		if len(entries) > 0 {
			return fmt.Errorf("resultcache: refusing %s: directory is not empty and has no %s manifest (not a result cache — pick an empty or fresh directory)",
				dir, ManifestName)
		}
		m, err := json.MarshalIndent(manifest{Format: manifestFormat, KeyScheme: keyScheme}, "", "  ")
		if err != nil {
			return err
		}
		return writeAtomic(mpath, append(m, '\n'))
	default:
		return fmt.Errorf("resultcache: %w", merr)
	}
}

// Dir returns the disk-tier root ("" for a memory-only cache).
func (c *Cache) Dir() string { return c.dir }

// Get returns the entry stored under k, consulting the memory tier
// first and falling back to disk. A disk hit is promoted into memory.
// The returned slice must be treated as read-only (memory-tier hits
// share it).
func (c *Cache) Get(k Key) ([]byte, bool) { return c.GetTraced(k, nil) }

// GetTraced is Get with span recording: the memory and disk lookups
// (and the disk entry's digest verification) become child spans of
// parent, so a request trace shows which tier served it and what the
// verification cost. A nil parent records nothing and costs nothing.
func (c *Cache) GetTraced(k Key, parent *obs.ActiveSpan) ([]byte, bool) {
	msp := parent.Child("cache.mem")
	c.mu.Lock()
	if el, ok := c.index[k]; ok {
		c.lru.MoveToFront(el)
		data := el.Value.(*memEntry).data
		c.mu.Unlock()
		c.memHits.Add(1)
		msp.Attr("outcome", "hit").End()
		return data, true
	}
	c.mu.Unlock()
	msp.Attr("outcome", "miss").End()
	if c.dir == "" {
		c.misses.Add(1)
		return nil, false
	}
	dsp := parent.Child("cache.disk")
	data, ok := c.readDisk(k, dsp)
	dsp.End()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.diskHits.Add(1)
	c.insertMem(k, data)
	return data, true
}

// Put stores data under k in both tiers. Storing the same key again is
// a no-op at the callers' level of abstraction (deterministic results),
// so the last write simply wins.
func (c *Cache) Put(k Key, data []byte) error { return c.PutTraced(k, data, nil) }

// PutTraced is Put with the disk write recorded as a child span of
// parent (attrs: payload bytes). A nil parent records nothing.
func (c *Cache) PutTraced(k Key, data []byte, parent *obs.ActiveSpan) error {
	if c.dir != "" {
		wsp := parent.Child("cache.write").Attr("bytes", strconv.Itoa(len(data)))
		err := c.writeDisk(k, data)
		wsp.End()
		if err != nil {
			return err
		}
	}
	c.insertMem(k, data)
	c.puts.Add(1)
	return nil
}

// insertMem adds (or refreshes) a memory-tier entry and evicts from the
// LRU tail past the byte budget. Entries larger than the whole budget
// are not cached in memory (disk still holds them).
func (c *Cache) insertMem(k Key, data []byte) {
	if len(data) > c.memCap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[k]; ok {
		e := el.Value.(*memEntry)
		c.memUse += len(data) - len(e.data)
		e.data = data
		c.lru.MoveToFront(el)
	} else {
		c.index[k] = c.lru.PushFront(&memEntry{key: k, data: data})
		c.memUse += len(data)
	}
	for c.memUse > c.memCap {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*memEntry)
		c.lru.Remove(tail)
		delete(c.index, e.key)
		c.memUse -= len(e.data)
		c.evictions.Add(1)
	}
}

// entryPath shards entries by the first key byte to keep directories
// small under large sweeps.
func (c *Cache) entryPath(k Key) string {
	hexKey := k.String()
	return filepath.Join(c.dir, "objects", hexKey[:2], hexKey)
}

// readDisk loads and verifies one disk entry, annotating sp (the
// enclosing cache.disk span) with the outcome. Any verification failure
// deletes the entry (corrupt-entry eviction) and reads as a miss.
func (c *Cache) readDisk(k Key, sp *obs.ActiveSpan) ([]byte, bool) {
	path := c.entryPath(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		sp.Attr("outcome", "miss")
		return nil, false
	}
	vsp := sp.Child("cache.verify").Attr("bytes", strconv.Itoa(len(raw)))
	header := len(entryMagic) + sha256.Size
	if len(raw) < header || string(raw[:len(entryMagic)]) != entryMagic {
		vsp.Attr("ok", "false").End()
		sp.Attr("outcome", "corrupt")
		c.evictCorrupt(path)
		return nil, false
	}
	payload := raw[header:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], raw[len(entryMagic):header]) {
		vsp.Attr("ok", "false").End()
		sp.Attr("outcome", "corrupt")
		c.evictCorrupt(path)
		return nil, false
	}
	vsp.Attr("ok", "true").End()
	sp.Attr("outcome", "hit")
	return payload, true
}

func (c *Cache) evictCorrupt(path string) {
	c.corrupt.Add(1)
	if info, err := os.Stat(path); err == nil {
		c.diskBytes.Add(-info.Size())
	}
	os.Remove(path)
}

// writeDisk frames and stores one entry via temp file + atomic rename,
// so a reader never observes a partially written entry under its final
// name.
func (c *Cache) writeDisk(k Key, data []byte) error {
	path := c.entryPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	sum := sha256.Sum256(data)
	buf := make([]byte, 0, len(entryMagic)+len(sum)+len(data))
	buf = append(buf, entryMagic...)
	buf = append(buf, sum[:]...)
	buf = append(buf, data...)
	var old int64
	if info, err := os.Stat(path); err == nil {
		old = info.Size() // overwrite: the gauge tracks the delta
	}
	if err := writeAtomic(path, buf); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	c.diskBytes.Add(int64(len(buf)) - old)
	return nil
}

// writeAtomic writes data next to path and renames it into place.
func writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Stats snapshots the activity counters.
func (c *Cache) Stats() Counters {
	return Counters{
		MemHits:   c.memHits.Load(),
		DiskHits:  c.diskHits.Load(),
		Misses:    c.misses.Load(),
		Corrupt:   c.corrupt.Load(),
		Evictions: c.evictions.Load(),
		Puts:      c.puts.Load(),
	}
}

// MemBytes reports the memory tier's current byte footprint.
func (c *Cache) MemBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memUse
}

// DiskBytes reports the disk tier's framed-entry byte footprint (0 for
// a memory-only cache).
func (c *Cache) DiskBytes() uint64 {
	n := c.diskBytes.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}
