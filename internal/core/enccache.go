package core

import (
	"sync"
	"sync/atomic"

	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// This file implements the origin-side encode cache. The paper's origin
// re-marshals every served object per request, so N clients chasing the
// same hot structure pay the encode cost N times for byte-identical
// output. The cache memoizes the canonical full-form encoding produced
// by encodeObjectInto, keyed by the object's heap address, and amortizes
// the marshaling work across consumers — origin CPU and allocations per
// served fetch drop, while the bytes on the wire are exactly the ones a
// fresh encode would have produced.
//
// Correctness rests on making a stale entry unreachable by construction,
// not on hunting down every mutation site:
//
//   - Every heap page carries a write-version counter (vmem.PageVersion)
//     advanced by every store, zero, or free touching the page. An entry
//     records the versions of the pages its object spanned at encode
//     time; a lookup revalidates them and drops the entry on mismatch.
//     Local writes, write-back installs, batched frees, and lazy-mode
//     write-throughs all funnel through vmem stores, so they invalidate
//     without knowing the cache exists. Hot protocol paths additionally
//     invalidate proactively (rt.encInvalidate) so the counters are
//     deterministic, but safety never depends on it.
//   - Only heap-pure encodings are admitted (encodeObjectInto): an
//     object whose pointer field aims into the cache region unswizzles
//     through data-allocation-table state that can change with no heap
//     write, which no page-version check could detect.
//   - Publishing snapshots the page versions BEFORE the encode and
//     re-checks them at insert, so an encode raced by a writer (possible
//     under Options.Concurrent) is simply not published.
//   - A crash-restart is cold by construction: the cache hangs off the
//     Runtime and dies with it.
//
// The cache is origin-local bookkeeping with zero wire-format change.
// Per-edge delta/cohstate forms stay per-edge; only the shared full-form
// body is cached. Capacity is bounded by Options.EncodeCacheBytes,
// enforced per shard with CLOCK (second-chance) eviction; the 16-way
// striping copies the pendingTable pattern so concurrent serves from
// different clients do not contend on one mutex.

const (
	// encShardCount stripes the cache; power of two (shard index is a
	// hash of the object address).
	encShardCount = 16
	// defaultEncodeCacheBytes is the Options.EncodeCacheBytes default.
	defaultEncodeCacheBytes = 4 << 20
	// encMaxSpanPages bounds the per-entry version vector. Objects
	// spanning more pages than this are served uncached — with 4 KiB
	// pages that is only reached by objects past 12 KiB.
	encMaxSpanPages = 4
)

// encPre is the page-version snapshot bracketing one encode: taken
// before the object is read, re-checked when the result is published.
// The warm cache (warmcache.go) takes the same snapshot over cache pages
// to decide whether a recorded revalidation hash still describes them.
// n == 0 is the empty snapshot, which is never current.
type encPre struct {
	firstPN uint32
	n       int
	vers    [encMaxSpanPages]uint32
}

// snapshotPages records the write versions of the pages an object at
// [addr, addr+size) spans. ok is false, and the snapshot empty, when the
// object spans more pages than the version vector holds.
func snapshotPages(sp *vmem.Space, addr vmem.VAddr, size int) (pre encPre, ok bool) {
	if size <= 0 {
		return pre, false
	}
	first := sp.PageOf(addr)
	last := sp.PageOf(addr + vmem.VAddr(size-1))
	n := int(last-first) + 1
	if n > encMaxSpanPages {
		return pre, false
	}
	pre.firstPN = first
	pre.n = n
	for i := 0; i < n; i++ {
		pre.vers[i] = sp.PageVersion(first + uint32(i))
	}
	return pre, true
}

// current reports whether the snapshot is non-empty and still matches
// the live page versions.
func (pre *encPre) current(sp *vmem.Space) bool {
	if pre.n == 0 {
		return false
	}
	for i := 0; i < pre.n; i++ {
		if sp.PageVersion(pre.firstPN+uint32(i)) != pre.vers[i] {
			return false
		}
	}
	return true
}

// encEntry is one cached encoding. bytes is immutable once published;
// sum is its FNV-1a content hash (wire.Sum64), which serveValidate
// compares against offered revalidation hashes and the invariant checker
// compares against a live re-encode.
type encEntry struct {
	lp    wire.LongPtr
	sum   uint64
	bytes []byte
	pre   encPre
	ref   bool // CLOCK reference bit
}

// encShard is one stripe. Entries live in the dense slab ents, which is
// also the ring the CLOCK hand sweeps; m maps an object address to its
// slot. Removal swap-deletes (the last entry moves into the hole and its
// slot index is patched), so the slab never accumulates holes. Keeping
// the ~100-byte entries out of the map means a publish inserts a 4-byte
// value instead of growing and rehashing a table of large ones, and a
// hit sets its reference bit in place.
type encShard struct {
	mu    sync.Mutex
	m     map[vmem.VAddr]int32
	ents  []encEntry
	hand  int
	bytes int
}

// encSnapshot is one entry's identity as seen by the invariant checker.
type encSnapshot struct {
	lp  wire.LongPtr
	sum uint64
	pre encPre
}

// encCache is the striped, byte-capped encode cache.
type encCache struct {
	space  *vmem.Space
	perCap int // byte budget per shard

	bytes         atomic.Int64
	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64

	shards [encShardCount]encShard
}

func newEncCache(space *vmem.Space, capBytes int) *encCache {
	if capBytes <= 0 {
		capBytes = defaultEncodeCacheBytes
	}
	perCap := capBytes / encShardCount
	if perCap < 1 {
		perCap = 1
	}
	c := &encCache{space: space, perCap: perCap}
	for i := range c.shards {
		c.shards[i].m = make(map[vmem.VAddr]int32)
	}
	return c
}

// shardOf picks the stripe for an object address. Heap addresses are
// aligned, so the low bits are poor discriminators; the multiplicative
// hash spreads them.
func (c *encCache) shardOf(addr vmem.VAddr) *encShard {
	h := uint32(addr) * 2654435761
	return &c.shards[h>>28&(encShardCount-1)]
}

// prepare snapshots the write versions of the heap pages an object at
// [addr, addr+size) spans. ok is false when the object is uncacheable
// (not in the heap, or spanning more pages than the version vector
// holds); the caller then encodes without consulting or feeding the
// cache.
func (c *encCache) prepare(addr vmem.VAddr, size int) (pre encPre, ok bool) {
	if !c.space.InHeap(addr) {
		return pre, false
	}
	return snapshotPages(c.space, addr, size)
}

// lookup returns the cached encoding for lp if one exists and its page
// versions still match. A version mismatch (or an address reused by a
// different datum) drops the entry and counts an invalidation on top of
// the miss — that is the lazy half of the invalidation story.
func (c *encCache) lookup(lp wire.LongPtr) ([]byte, uint64, bool) {
	s := c.shardOf(lp.Addr)
	s.mu.Lock()
	i, ok := s.m[lp.Addr]
	if ok {
		if e := &s.ents[i]; e.lp != lp || !e.pre.current(c.space) {
			c.dropLocked(s, i)
			c.invalidations.Add(1)
			ok = false
		}
	}
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, 0, false
	}
	e := &s.ents[i]
	e.ref = true
	b, sum := e.bytes, e.sum
	s.mu.Unlock()
	c.hits.Add(1)
	return b, sum, true
}

// publish inserts one freshly encoded body, provided the page versions
// still match the pre-encode snapshot (a concurrent writer raced the
// encode otherwise) and the body fits a shard's budget at all. evicted
// is how many colder entries the CLOCK hand displaced to make room.
func (c *encCache) publish(lp wire.LongPtr, pre encPre, sum uint64, b []byte) (published bool, evicted int) {
	if len(b) > c.perCap || !pre.current(c.space) {
		return false, 0
	}
	s := c.shardOf(lp.Addr)
	s.mu.Lock()
	if i, ok := s.m[lp.Addr]; ok {
		// Replace in place; the entry keeps its slot.
		old := len(s.ents[i].bytes)
		s.bytes -= old
		c.bytes.Add(-int64(old))
		s.ents[i] = encEntry{lp: lp, sum: sum, bytes: b, pre: pre}
	} else {
		s.m[lp.Addr] = int32(len(s.ents))
		s.ents = append(s.ents, encEntry{lp: lp, sum: sum, bytes: b, pre: pre})
	}
	s.bytes += len(b)
	c.bytes.Add(int64(len(b)))
	evicted = c.evictLocked(s)
	s.mu.Unlock()
	return true, evicted
}

// evictLocked runs the CLOCK hand until the shard is back under budget:
// referenced entries get a second chance (bit cleared, hand moves on),
// unreferenced ones are evicted. Called with s.mu held.
func (c *encCache) evictLocked(s *encShard) int {
	n := 0
	for s.bytes > c.perCap && len(s.ents) > 0 {
		if s.hand >= len(s.ents) {
			s.hand = 0
		}
		if e := &s.ents[s.hand]; e.ref {
			e.ref = false
			s.hand++
			continue
		}
		c.dropLocked(s, int32(s.hand))
		c.evictions.Add(1)
		n++
	}
	return n
}

// dropLocked removes the entry in slot i: the last entry moves into the
// hole and its map slot is patched, and the vacated tail is cleared so
// the slab does not pin the dropped bytes. Called with s.mu held.
func (c *encCache) dropLocked(s *encShard, i int32) {
	e := &s.ents[i]
	delete(s.m, e.lp.Addr)
	s.bytes -= len(e.bytes)
	c.bytes.Add(-int64(len(e.bytes)))
	last := int32(len(s.ents) - 1)
	if i != last {
		s.ents[i] = s.ents[last]
		s.m[s.ents[i].lp.Addr] = i
	}
	s.ents[last] = encEntry{}
	s.ents = s.ents[:last]
}

// invalidate proactively drops the entry for one heap object, reporting
// whether one existed. The version counters already make stale entries
// unreachable; the proactive drop frees the memory immediately and keeps
// the invalidation counter deterministic for the protocol paths that
// know they just overwrote an object (write-back installs, frees).
func (c *encCache) invalidate(addr vmem.VAddr) bool {
	s := c.shardOf(addr)
	s.mu.Lock()
	i, ok := s.m[addr]
	if ok {
		c.dropLocked(s, i)
	}
	s.mu.Unlock()
	if ok {
		c.invalidations.Add(1)
		return true
	}
	return false
}

// snapshot lists every entry's identity for the invariant checker.
func (c *encCache) snapshot() []encSnapshot {
	var out []encSnapshot
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.ents {
			e := &s.ents[k]
			out = append(out, encSnapshot{lp: e.lp, sum: e.sum, pre: e.pre})
		}
		s.mu.Unlock()
	}
	return out
}

// --- runtime wiring ---

// encLookup consults the encode cache for lp's canonical body; a nil
// cache (DisableEncodeCache) misses without counting.
func (rt *Runtime) encLookup(lp wire.LongPtr) ([]byte, uint64, bool) {
	if rt.enc == nil {
		return nil, 0, false
	}
	return rt.enc.lookup(lp)
}

// encPrepare snapshots page versions ahead of an encode destined for the
// cache; ok is false when caching is off or the object is uncacheable.
func (rt *Runtime) encPrepare(addr vmem.VAddr, size int) (encPre, bool) {
	if rt.enc == nil {
		return encPre{}, false
	}
	return rt.enc.prepare(addr, size)
}

// encPublish feeds one freshly encoded, heap-pure body into the cache
// and traces any evictions it caused. b must be immutable from here on.
func (rt *Runtime) encPublish(lp wire.LongPtr, pre encPre, b []byte) {
	if rt.enc == nil {
		return
	}
	_, evicted := rt.enc.publish(lp, pre, wire.Sum64(b), b)
	if evicted > 0 {
		rt.trace(Event{Kind: EvEncCacheEvict, Count: evicted})
	}
}

// encInvalidate proactively drops lp's cache entry after a known
// overwrite or free of a local heap object.
func (rt *Runtime) encInvalidate(addr vmem.VAddr) {
	if rt.enc == nil {
		return
	}
	if rt.enc.invalidate(addr) {
		rt.trace(Event{Kind: EvEncCacheInvalidate, Page: rt.space.PageOf(addr)})
	}
}

// encTraceServe emits the per-serve aggregated hit/miss events (one
// event per serve rather than one per item, to keep tracer volume
// proportional to messages, not objects).
func (rt *Runtime) encTraceServe(hits, misses int) {
	if rt.enc == nil {
		return
	}
	if hits > 0 {
		rt.trace(Event{Kind: EvEncCacheHit, Count: hits})
	}
	if misses > 0 {
		rt.trace(Event{Kind: EvEncCacheMiss, Count: misses})
	}
}

// checkEncCacheInvariant verifies the cache's core promise: every entry
// whose page-version snapshot is still current re-encodes to the same
// content hash. (Entries with drifted versions are unreachable — lookup
// would drop them — so they are vacuously safe and skipped.) Called from
// CheckLocalInvariants.
func (rt *Runtime) checkEncCacheInvariant() error {
	if rt.enc == nil {
		return nil
	}
	for _, sn := range rt.enc.snapshot() {
		if !sn.pre.current(rt.space) {
			continue
		}
		rv, err := rt.res.Resolve(sn.lp.Type)
		if err != nil {
			return invariantErr(rt.id, "encode-cache entry %v has unresolvable type: %v", sn.lp, err)
		}
		live, err := encodeObject(rt.space, rt.table, rt.res, rv.Desc, sn.lp.Addr)
		if err != nil {
			return invariantErr(rt.id, "encode-cache entry %v: live re-encode failed: %v", sn.lp, err)
		}
		if wire.Sum64(live) != sn.sum {
			return invariantErr(rt.id,
				"encode-cache entry %v is version-current but its bytes diverge from a live re-encode", sn.lp)
		}
	}
	return nil
}
