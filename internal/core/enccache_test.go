package core

import (
	"fmt"
	"sync"
	"testing"

	"smartrpc/internal/wire"
)

// TestEncCacheMultiClientSharing: three clients chasing the same chain on
// one origin pay the encode cost once, not three times — the first walk
// misses per node, the other two hit per node. Invariant checking stays
// on so every serve also validates the cached sums against live
// re-encodes.
func TestEncCacheMultiClientSharing(t *testing.T) {
	_, server, clients := pipelineNet(t, 3, nil)
	const n = 64
	head, want := buildChain(t, server, n, 0)
	for i, cl := range clients {
		sum, err := chase(cl, head)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if sum != want {
			t.Fatalf("client %d sum = %d, want %d", i, sum, want)
		}
	}
	s := server.Stats()
	if s.EncCacheMisses != n {
		t.Errorf("encode-cache misses = %d, want %d (each node encoded once)", s.EncCacheMisses, n)
	}
	if s.EncCacheHits != 2*n {
		t.Errorf("encode-cache hits = %d, want %d (clients 2 and 3 all hit)", s.EncCacheHits, 2*n)
	}
	if s.EncCacheBytes == 0 {
		t.Error("encode cache resident bytes = 0 after serving")
	}
	if err := server.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEncCacheWriteBackInvalidatesConcurrently is the -race stress for
// the tentpole's safety claim: one client repeatedly modifies shared
// data and writes it back while two others fetch it. No reader may ever
// observe a value the origin never held (stale cached bytes), values are
// monotone per reader, the final read sees the last write, and the
// write-back path must have fired the proactive invalidation.
func TestEncCacheWriteBackInvalidatesConcurrently(t *testing.T) {
	_, server, clients := pipelineNet(t, 3, nil)
	head, _ := buildChain(t, server, 1, 0) // one node, data = 1
	const bumps = 20

	readVal := func(cl *Runtime) (int64, error) { return chase(cl, head) }

	errc := make(chan error, len(clients))
	done := make(chan struct{})
	var writerWg, readerWg sync.WaitGroup
	writerWg.Add(1)
	go func() { // writer: client 0
		defer writerWg.Done()
		cl := clients[0]
		for i := 0; i < bumps; i++ {
			err := func() error {
				v, err := cl.ImportPtr(head)
				if err != nil {
					return err
				}
				if err := cl.BeginSession(); err != nil {
					return err
				}
				ref, err := cl.Deref(v)
				if err != nil {
					return err
				}
				d, err := ref.Int("data", 0)
				if err != nil {
					return err
				}
				if err := ref.SetInt("data", 0, d+1); err != nil {
					return err
				}
				return cl.EndSession()
			}()
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 1; r < 3; r++ {
		readerWg.Add(1)
		go func(cl *Runtime) { // readers: clients 1 and 2
			defer readerWg.Done()
			last := int64(0)
			for {
				got, err := readVal(cl)
				if err != nil {
					errc <- err
					return
				}
				if got < last || got > 1+bumps {
					errc <- fmt.Errorf("stale or impossible read: got %d after %d (max %d)",
						got, last, 1+bumps)
					return
				}
				last = got
				select {
				case <-done:
					return
				default:
				}
			}
		}(clients[r])
	}
	writerWg.Wait()
	close(done)
	readerWg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got, err := readVal(clients[1]); err != nil || got != 1+bumps {
		t.Fatalf("final read = %d, %v; want %d", got, err, 1+bumps)
	}
	if s := server.Stats(); s.EncCacheInvalidations == 0 {
		t.Error("write-backs raced fetches but the encode cache recorded no invalidations")
	}
	if err := server.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEncCacheEviction: a cache cap far below the working set forces the
// CLOCK hand to evict, the resident-bytes gauge respects the cap, and
// the served data is still correct.
func TestEncCacheEviction(t *testing.T) {
	capBytes := 16 * 64 // 64 bytes per shard: one ~40-byte node each
	_, server, clients := pipelineNet(t, 2, nil)
	// pipelineNet fixes the server's options, so swap in the tiny cache
	// directly before anything is served.
	server.enc = newEncCache(server.space, capBytes)
	head, want := buildChain(t, server, 128, 0)
	for i, cl := range clients {
		sum, err := chase(cl, head)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if sum != want {
			t.Fatalf("client %d sum = %d, want %d", i, sum, want)
		}
	}
	s := server.Stats()
	if s.EncCacheEvictions == 0 {
		t.Error("128 nodes through a 1 KiB cache evicted nothing")
	}
	if s.EncCacheBytes > uint64(capBytes) {
		t.Errorf("resident bytes %d exceed cap %d", s.EncCacheBytes, capBytes)
	}
	if err := server.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
	checkEncSlab(t, server.enc)

	// A mix of every mutation the slab sees: publishes and CLOCK evictions
	// (room for several entries per shard, so swap-deletes move real
	// neighbours), proactive invalidations, and version-mismatch drops on
	// lookup after the origin rewrites part of the chain.
	server.enc = newEncCache(server.space, 16*256)
	if _, err := chase(clients[0], head); err != nil {
		t.Fatal(err)
	}
	var nodes []Value
	for v, err := server.ImportPtr(head); !v.IsNullPtr(); {
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, v)
		ref, err := server.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		if v, err = ref.Ptr("left", 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range nodes {
		if i%3 == 0 {
			server.enc.invalidate(v.Addr)
		}
		if i%5 == 0 {
			ref, err := server.Deref(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.SetInt("data", 0, int64(1000+i)); err != nil {
				t.Fatal(err)
			}
			want += int64(1000+i) - int64(i+1)
		}
	}
	before := server.Stats()
	for i, cl := range clients {
		if sum, err := chase(cl, head); err != nil || sum != want {
			t.Fatalf("client %d after the mix: sum = %d, %v; want %d", i, sum, err, want)
		}
	}
	after := server.Stats()
	if after.EncCacheEvictions == before.EncCacheEvictions {
		t.Error("the mix evicted nothing")
	}
	if after.EncCacheInvalidations == before.EncCacheInvalidations {
		t.Error("the mix dropped no version-stale entry on lookup")
	}
	if err := server.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
	checkEncSlab(t, server.enc)
}

// checkEncSlab verifies the encode cache's slab bookkeeping: every map
// slot indexes the entry holding that address, map and slab have the
// same size, and the shard and global byte totals agree with the
// entries.
func checkEncSlab(t *testing.T, c *encCache) {
	t.Helper()
	var total int64
	for si := range c.shards {
		s := &c.shards[si]
		s.mu.Lock()
		if len(s.m) != len(s.ents) {
			t.Errorf("shard %d: %d map keys, %d slab entries", si, len(s.m), len(s.ents))
		}
		for addr, slot := range s.m {
			if int(slot) >= len(s.ents) || s.ents[slot].lp.Addr != addr {
				t.Errorf("shard %d: address %#x maps to slot %d, which does not hold it", si, uint32(addr), slot)
			}
		}
		n := 0
		for _, e := range s.ents {
			n += len(e.bytes)
		}
		if n != s.bytes {
			t.Errorf("shard %d: byte total %d, entries hold %d", si, s.bytes, n)
		}
		total += int64(s.bytes)
		s.mu.Unlock()
	}
	if got := c.bytes.Load(); got != total {
		t.Errorf("global byte total %d, shards hold %d", got, total)
	}
}

// TestEncCacheDisabled: the ablation serves correctly and moves no cache
// counters.
func TestEncCacheDisabled(t *testing.T) {
	_, server, clients := pipelineNet(t, 2, nil)
	server.enc = nil // DisableEncodeCache equivalent for the shared-net helper
	head, want := buildChain(t, server, 32, 0)
	for i, cl := range clients {
		sum, err := chase(cl, head)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if sum != want {
			t.Fatalf("client %d sum = %d, want %d", i, sum, want)
		}
	}
	s := server.Stats()
	if s.EncCacheHits != 0 || s.EncCacheMisses != 0 || s.EncCacheBytes != 0 {
		t.Errorf("disabled cache moved counters: %+v", s)
	}
}

// TestEncCacheDisableOption exercises the real Options plumbing for the
// ablation flag.
func TestEncCacheDisableOption(t *testing.T) {
	caller, callee := pair(t, func(id uint32, o *Options) { o.DisableEncodeCache = true })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != wantSum(4) {
		t.Fatalf("sum = %d, want %d", got, wantSum(4))
	}
	if s := caller.Stats(); s.EncCacheHits != 0 || s.EncCacheMisses != 0 {
		t.Errorf("DisableEncodeCache origin moved counters: hits=%d misses=%d",
			s.EncCacheHits, s.EncCacheMisses)
	}
}

// --- satellite 1: the origin's hot serve path ---

// serveHotSetup builds an origin with a fully built tree and returns the
// wants list the serve loop answers.
func serveHotSetup(t testing.TB, disable bool) (*Runtime, []wire.LongPtr) {
	rt, _ := pair(t, func(id uint32, o *Options) { o.DisableEncodeCache = disable })
	root := buildTree(t, rt, 7) // 127 nodes
	return rt, []wire.LongPtr{root.LP}
}

// serveHot runs one serve exactly the way serveFetch does: pooled
// scratch in, closure build, scratch back.
func serveHot(t testing.TB, rt *Runtime, wants []wire.LongPtr) int {
	sc := serveScratchPool.Get().(*serveScratch)
	items, err := rt.buildClosureItems(wants, 0, 1<<20, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(items)
	sc.reset()
	serveScratchPool.Put(sc)
	return n
}

// BenchmarkServeFetchHot pins the allocation count of the origin's hot
// serve path: pooled scratch plus encode-cache hits should make a warm
// serve allocation-free up to the returned items' bookkeeping.
func BenchmarkServeFetchHot(b *testing.B) {
	rt, wants := serveHotSetup(b, false)
	serveHot(b, rt, wants) // warm the cache and the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveHot(b, rt, wants)
	}
}

// BenchmarkServeFetchHotNoCache is the ablation baseline for the same
// path: every serve re-encodes into a fresh arena.
func BenchmarkServeFetchHotNoCache(b *testing.B) {
	rt, wants := serveHotSetup(b, true)
	serveHot(b, rt, wants)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveHot(b, rt, wants)
	}
}

// TestServeFetchHotAllocsReduction is the acceptance check behind the
// benchmarks: with the encode cache on, a warm serve of a hot closure
// allocates less than half of what the re-encode-everything ablation
// does.
func TestServeFetchHotAllocsReduction(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cached, wantsC := serveHotSetup(t, false)
	ablated, wantsA := serveHotSetup(t, true)
	serveHot(t, cached, wantsC)
	serveHot(t, ablated, wantsA)
	on := testing.AllocsPerRun(50, func() { serveHot(t, cached, wantsC) })
	off := testing.AllocsPerRun(50, func() { serveHot(t, ablated, wantsA) })
	if on > off/2 {
		t.Errorf("warm serve allocates %.1f/op with the cache vs %.1f/op ablated; want >= 50%% reduction", on, off)
	}
	s := cached.Stats()
	if s.EncCacheHits == 0 {
		t.Error("warm serves recorded no encode-cache hits")
	}
}
