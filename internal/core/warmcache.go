package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"smartrpc/internal/delta"
	"smartrpc/internal/swizzle"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
	"smartrpc/internal/xdr"
)

// This file implements the warm cross-session cache. The paper's protocol
// (§3.4) discards every cached page at session end, so each new session
// pays the full fault-and-fetch cost again even when the origin data never
// changed. Here the end-of-session invalidation *demotes* instead: table
// rows become stale (swizzle.Entry.Stale) and page bytes survive under
// ProtNone (vmem.DemoteCache). Demotion does no per-datum work beyond
// flipping those marks. The next session's first fault over a stale page
// sends one batched Validate message carrying (pointer, version, content
// hash) tuples for the faulting page plus the stale ride-alongs in its
// closure neighborhood; the origin answers each tuple with a zero-byte
// "still current" token, a range delta against the bytes the client
// holds (internal/delta), or a full body — an unchanged working set costs
// one small round trip instead of N full fetches.
//
// Safety rests on three rules:
//
//   - The offered hash is derived ONLY by re-encoding the cached page
//     bytes, never from fetch- or coherency-path installs, so it describes
//     exactly the bytes a token would promote.
//   - A recorded hash is reused without re-encoding only while the
//     write-version snapshot of the cache pages it was computed from is
//     current (vmem.PageVersion): every install, local store and hard
//     invalidation of those pages moves a version. This is the encode
//     cache's encPre rule, applied to cache pages.
//   - The content hash, not the version counter, is authoritative for
//     token decisions: the origin answers "still current" only when the
//     hash of its *current* encoding equals the offered hash. A dropped or
//     corrupted reply can therefore never set up a later token that
//     promotes bytes differing from the origin's — the failure mode of
//     version-lockstep schemes. Versions are carried for diagnostics.
//
// No encoded bytes are retained on the client: a delta reply is applied
// to a fresh re-encode of the still-protected page, checked against the
// offered hash. Any failure in the exchange degrades transparently: the
// affected entries lose their stale mark and hash and are refetched in
// full by the ordinary fetch path. Correctness never depends on warm
// state.

// warmView is this space's revalidation record for one stale datum: the
// content hash of its cached page's canonical encoding when the datum was
// last offered, a counter that moves whenever that hash changes, and the
// write versions of the cache pages the encode read. While the snapshot
// is current the hash still describes the page, and the next offer sends
// it without re-encoding.
type warmView struct {
	ver uint32
	sum uint64
	pre encPre
}

// reusable reports whether the recorded hash still describes the datum
// at addr: the snapshot covers that address's pages and none of them has
// been written since. Objects spanning more than encMaxSpanPages pages
// carry no snapshot and always re-encode.
func (v *warmView) reusable(sp *vmem.Space, addr vmem.VAddr) bool {
	return v.pre.firstPN == sp.PageOf(addr) && v.pre.current(sp)
}

// warmCache is a runtime's cross-session warm state. views is the client
// side: recorded hashes of the remote data this space caches. served is
// the server side: per peer, the canonical bytes this space last shipped
// for each of its own data — the delta base for Validate replies. Both
// deliberately survive session teardown; served entries are only ever
// used after an offered hash proves the peer still holds those bytes.
type warmCache struct {
	mu     sync.Mutex
	views  map[wire.LongPtr]warmView
	served map[uint32]map[wire.LongPtr][]byte
}

// clearViews drops every client record (hard invalidation paths).
func (w *warmCache) clearViews() {
	w.mu.Lock()
	w.views = nil
	w.mu.Unlock()
}

// dropView forgets one datum's record. The runtime calls it when the
// datum's table row goes away, which keeps views bounded by table rows.
func (w *warmCache) dropView(lp wire.LongPtr) {
	w.mu.Lock()
	delete(w.views, lp)
	w.mu.Unlock()
}

// warmEnabled reports whether this runtime keeps its cache warm across
// sessions. Only the smart policy caches through the data allocation
// table in a way demotion can preserve.
func (rt *Runtime) warmEnabled() bool {
	return rt.policy == PolicySmart && !rt.noWarmCache
}

// demoteWarm is the warm-cache replacement for the hard local
// invalidation at session teardown: it feeds the adaptive-eagerness
// accounting, then demotes the table rows and re-protects the cache pages
// in place. It encodes nothing: a stale datum's hash is computed the
// first time a later session offers it. A provisional row surviving to
// teardown means the protocol already failed, so demotion falls back to
// the hard invalidation — losing warmth, never correctness.
func (rt *Runtime) demoteWarm() {
	rt.recordEagerUsage()
	provisional := false
	rt.table.Each(func(e swizzle.Entry) {
		provisional = provisional || uint32(e.LP.Addr) >= provisionalBase
	})
	if provisional {
		rt.demoteFallback()
		return
	}
	rt.table.DemoteAll()
	rt.space.DemoteCache()
}

// demoteFallback is the hard local invalidation demoteWarm retreats to.
func (rt *Runtime) demoteFallback() {
	rt.warm.clearViews()
	rt.space.InvalidateCache()
	rt.table.Invalidate()
}

// validateTuplesFor builds the offer tuples for a set of stale long
// pointers. A datum whose recorded hash is still reusable offers it as
// is; any other is re-encoded from its protected page first. Entries
// that cannot be offered (row gone, encode failure) are returned
// separately so the caller can strip their stale marks.
func (rt *Runtime) validateTuplesFor(lps []wire.LongPtr) (tuples []wire.ValidateTuple, without []wire.LongPtr) {
	rt.warm.mu.Lock()
	defer rt.warm.mu.Unlock()
	if rt.warm.views == nil {
		rt.warm.views = make(map[wire.LongPtr]warmView, len(lps))
	}
	tuples = make([]wire.ValidateTuple, 0, len(lps))
	var enc *xdr.Encoder
	for _, lp := range lps {
		addr, ok := rt.table.LookupLP(lp)
		if !ok {
			delete(rt.warm.views, lp)
			without = append(without, lp)
			continue
		}
		v, had := rt.warm.views[lp]
		if !had || !v.reusable(rt.space, addr) {
			if enc == nil {
				enc = xdr.NewEncoder(0)
			}
			sum, pre, err := rt.hashCached(enc, lp, addr)
			if err != nil {
				delete(rt.warm.views, lp)
				without = append(without, lp)
				continue
			}
			if !had {
				v.ver = 1
			} else if v.sum != sum {
				v.ver++
			}
			v.sum, v.pre = sum, pre
			rt.warm.views[lp] = v
		}
		tuples = append(tuples, wire.ValidateTuple{LP: lp, Ver: v.ver, Sum: v.sum})
	}
	return tuples, without
}

// hashCached re-encodes the cached datum lp at addr into enc (reset
// first) and returns the content hash with the page-version snapshot the
// hash is valid under. The snapshot is taken before the encode and
// emptied if a concurrent install moved it meanwhile, or if the object
// spans too many pages; an empty snapshot is never reusable.
func (rt *Runtime) hashCached(enc *xdr.Encoder, lp wire.LongPtr, addr vmem.VAddr) (uint64, encPre, error) {
	rv, err := rt.res.Resolve(lp.Type)
	if err != nil {
		return 0, encPre{}, err
	}
	pre, _ := snapshotPages(rt.space, addr, rv.Layout.Size)
	enc.Reset()
	if _, err := encodeObjectInto(enc, rt.space, rt.table, rt.res, rv.Desc, addr); err != nil {
		return 0, encPre{}, err
	}
	if !pre.current(rt.space) {
		pre = encPre{}
	}
	return wire.Sum64(enc.Bytes()), pre, nil
}

// degradeStale strips the warm state of the given tuples — stale marks
// and recorded hashes — so the ordinary fetch path refetches them in
// full. It is the client's answer to any failed or unusable Validate
// exchange.
func (rt *Runtime) degradeStale(tuples []wire.ValidateTuple) {
	lps := make([]wire.LongPtr, len(tuples))
	for i, t := range tuples {
		lps[i] = t.LP
	}
	rt.degradeLPs(lps)
}

func (rt *Runtime) degradeLPs(lps []wire.LongPtr) {
	if len(lps) == 0 {
		return
	}
	rt.table.ClearStale(lps)
	rt.warm.mu.Lock()
	for _, lp := range lps {
		delete(rt.warm.views, lp)
	}
	rt.warm.mu.Unlock()
}

// validateFrom revalidates the faulting page's stale entries (all owned
// by origin) with one batched Validate round trip, piggybacking tuples
// for stale ride-alongs within the eagerness budget. On any failure the
// affected entries degrade to plain wants and the method returns nil —
// the caller's fetch loop refetches them in full, so a lost or corrupted
// reply costs a refetch, never a stale read.
//
// A promoted warm page exposes its swizzled pointers just like a fresh
// install does, so a successful revalidation asks for a prefetcher poke
// (poke=true). As with fetchFrom, the poke itself is deferred to
// completeFrom: it may only run after the in-flight registry slot is
// released, or an inline speculative completion could deadlock joining
// this goroutine's own entry.
func (rt *Runtime) validateFrom(sess uint64, pn, origin uint32, lps []wire.LongPtr) (poke bool, err error) {
	if !rt.noFetchBatch {
		extra, _ := rt.table.StaleWants(origin, pn, rt.budgetFor(origin))
		lps = append(lps, extra...)
	}
	tuples, without := rt.validateTuplesFor(lps)
	rt.table.ClearStale(without)
	if len(tuples) == 0 {
		return false, nil
	}
	p := wire.ValidatePayload{Tuples: tuples}
	req := wire.Message{Kind: wire.KindValidate, Session: sess, To: origin, Payload: p.Encode()}
	// Unlike a fetch stream nothing is installed mid-exchange —
	// revalidation decisions need the full answer set (unanswered tuples
	// degrade) — so the reply's item vectors are collected in order, and
	// streaming here buys pipelined encode/transmit on the origin, not
	// early unblocking. Item bytes may alias pooled chunk frames; those
	// are held until the apply has consumed (cloned or patched from)
	// every body.
	var items []wire.ValidateItem
	var frames []wire.Message
	release := func() {
		for i := range frames {
			frames[i].ReleaseFrame()
		}
		frames = frames[:0]
	}
	rerr := rt.do(req, func(x *exchange) error {
		rt.stats.cohRevalidateMsgs.Add(1)
		rt.trace(Event{Kind: EvValidateSent, Target: origin, Page: pn, Count: len(tuples)})
		release()
		items = nil
		for {
			m, c, err := x.next()
			if err != nil {
				return err
			}
			if m.Frame != nil {
				frames = append(frames, m)
			}
			if m.Kind == wire.KindFetchChunk {
				rt.trace(Event{Kind: EvChunkRecv, Target: origin, Page: c.Chunk, Count: len(c.VItems)})
			}
			if items == nil {
				items = c.VItems
			} else {
				items = append(items, c.VItems...)
			}
			if c.Final {
				return nil
			}
		}
	})
	if rerr != nil {
		release()
		// A tripped fence is real state loss, not a lost reply: surface it.
		// Everything else keeps the seed's graceful degrade — the offered
		// tuples fall back to plain wants and the fetch loop refetches.
		if errors.Is(rerr, ErrOriginRestarted) {
			return false, rerr
		}
		rt.degradeStale(tuples)
		return false, nil
	}
	err = rt.applyValidateReply(tuples, items)
	release()
	if err != nil {
		return false, err
	}
	return true, nil
}

// applyValidateReply installs the origin's per-tuple answers: tokens
// promote the stale entry in place (the page already holds the current
// bytes), deltas patch a re-encode of the page, full bodies install as a
// fetch reply would. Every offered tuple ends the call either resident or
// degraded to a plain want, so the fetch loop always makes progress.
func (rt *Runtime) applyValidateReply(tuples []wire.ValidateTuple, items []wire.ValidateItem) error {
	// Revalidation installs into cache pages like installItems does, and
	// under the same serialization (see installItems).
	rt.installMu.Lock()
	defer rt.installMu.Unlock()
	offered := make(map[wire.LongPtr]uint64, len(tuples))
	for _, t := range tuples {
		offered[t.LP] = t.Sum
	}
	touched := make(map[uint32]bool)
	var base *xdr.Encoder
	for _, it := range items {
		sum, ok := offered[it.LP]
		if !ok {
			continue // unsolicited; ignore
		}
		delete(offered, it.LP)
		addr, ok := rt.table.LookupLP(it.LP)
		if !ok {
			continue // row vanished (freed meanwhile); nothing to promote
		}
		e, ok := rt.table.LookupAddr(addr)
		if !ok || !e.Stale {
			continue // already promoted or overwritten by another path
		}
		switch it.Form {
		case wire.ValidateCurrent:
			// The offered hash matched the origin's current encoding: the
			// page bytes under ProtNone are already exact. No decode.
			rt.table.MarkResident(addr)
			rt.stats.cohRevalidateHits.Add(1)
			rt.trace(Event{Kind: EvValidateHit, LP: it.LP})
		case wire.ValidateDelta, wire.ValidateFull:
			var body []byte
			if it.Form == wire.ValidateDelta {
				// The delta is against the bytes the offered hash
				// describes. The page is still protected, so a re-encode
				// reproduces them — unless something moved under it, which
				// the hash check catches.
				if base == nil {
					base = xdr.NewEncoder(0)
				}
				if got, _, err := rt.hashCached(base, it.LP, addr); err != nil || got != sum {
					rt.degradeLPs([]wire.LongPtr{it.LP})
					continue
				}
				runs, err := delta.Decode(it.Bytes)
				if err != nil {
					rt.degradeLPs([]wire.LongPtr{it.LP})
					continue
				}
				body, err = delta.Apply(base.Bytes(), runs)
				if err != nil {
					rt.degradeLPs([]wire.LongPtr{it.LP})
					continue
				}
			} else {
				// Reply bytes alias the frame buffer; the decode below may
				// swizzle and recurse, so take a stable copy.
				body = slices.Clone(it.Bytes)
			}
			rv, err := rt.res.Resolve(it.LP.Type)
			if err != nil {
				return err
			}
			if err := decodeObject(rt.space, rt.table, rt.res, rv.Desc, addr, body); err != nil {
				return fmt.Errorf("revalidate install %v: %w", it.LP, err)
			}
			rt.table.MarkResident(addr)
			// Accounted by the revalidation counters alone, not by
			// ItemsInstalled/BytesInstalled: those track the fetch path,
			// where wire bytes equal body bytes. A delta install's wire
			// cost is the delta, and summing both families would double
			// count the same datum.
			rt.stats.cohRevalidateMisses.Add(1)
			rt.stats.cohRevalidateBytes.Add(uint64(len(it.Bytes)))
			rt.trace(Event{Kind: EvValidateMiss, LP: it.LP, Count: len(it.Bytes)})
		}
		first := rt.space.PageOf(addr)
		last := rt.space.PageOf(addr + vmem.VAddr(e.Size-1))
		for pn := first; pn <= last; pn++ {
			touched[pn] = true
		}
	}
	// Tuples the origin failed to answer degrade — otherwise the fetch
	// loop would re-offer them forever.
	if len(offered) > 0 {
		lps := make([]wire.LongPtr, 0, len(offered))
		for lp := range offered {
			lps = append(lps, lp)
		}
		rt.degradeLPs(lps)
	}
	pages := make([]uint32, 0, len(touched))
	for pn := range touched {
		pages = append(pages, pn)
	}
	slices.Sort(pages)
	for _, pn := range pages {
		prot, err := rt.space.ProtOf(pn)
		if err != nil {
			return err
		}
		if prot != vmem.ProtNone {
			continue
		}
		if !rt.table.AllResident(pn) {
			continue
		}
		if err := rt.space.SetProt(pn, vmem.ProtRead); err != nil {
			return err
		}
		rt.table.Seal(pn)
	}
	if rt.checkInv {
		return rt.CheckLocalInvariants()
	}
	return nil
}

// serveValidate answers a batched revalidation request: for each offered
// (pointer, version, hash) tuple it re-encodes the datum's current value
// and replies with a token when the hashes match, a range delta when the
// peer's recorded bytes are a usable base and the delta is smaller, or
// the full body. The served record updates to the current encoding either
// way, keeping future deltas small.
func (rt *Runtime) serveValidate(m wire.Message) {
	p, err := wire.DecodeValidatePayload(m.Payload)
	if err != nil {
		rt.reply(m, wire.KindValidateReply, nil, fmt.Errorf("decode: %w", err))
		return
	}
	// Re-encoding reads the heap; hold the read side of the serve lock
	// against concurrently applied write-backs.
	rt.serveMu.RLock()
	defer rt.serveMu.RUnlock()
	// A reply heavy with full bodies streams as validate chunks, exactly
	// like a large fetch closure (chunkEmitter); the common all-token
	// reply stays well under the threshold and goes out monolithic.
	var em *chunkEmitter
	if !rt.noStreaming && rt.streamChunk > 0 {
		em = &chunkEmitter{rt: rt, req: m, limit: rt.streamChunk, validate: true}
	}
	accBytes := 0
	fail := func(err error) {
		if em != nil && em.sent > 0 {
			em.fail(err)
			return
		}
		rt.reply(m, wire.KindValidateReply, nil, err)
	}
	out := wire.ValidateReplyPayload{Items: make([]wire.ValidateItem, 0, len(p.Tuples))}
	rt.warm.mu.Lock()
	defer rt.warm.mu.Unlock()
	if rt.warm.served == nil {
		rt.warm.served = make(map[uint32]map[wire.LongPtr][]byte)
	}
	sv := rt.warm.served[m.From]
	if sv == nil {
		sv = make(map[wire.LongPtr][]byte, len(p.Tuples))
		rt.warm.served[m.From] = sv
	}
	encHits, encMisses := 0, 0
	for ti, t := range p.Tuples {
		if t.LP.Space != rt.id {
			fail(fmt.Errorf("core: validate for datum %v not owned by space %d", t.LP, rt.id))
			return
		}
		rv, err := rt.res.Resolve(t.LP.Type)
		if err != nil {
			fail(err)
			return
		}
		// A cache hit answers with the memoized bytes AND the memoized
		// content hash — the common "nothing changed" validate does no
		// encoding and no hashing at all.
		cur, curSum, hit := rt.encLookup(t.LP)
		if hit {
			encHits++
		} else {
			encMisses++
			pre, cacheable := rt.encPrepare(t.LP.Addr, rv.Layout.Size)
			enc := xdr.NewEncoder(rv.Canon)
			pure, err := encodeObjectInto(enc, rt.space, rt.table, rt.res, rv.Desc, t.LP.Addr)
			if err != nil {
				fail(fmt.Errorf("encode %v: %w", t.LP, err))
				return
			}
			cur = enc.Bytes()
			curSum = wire.Sum64(cur)
			if cacheable && pure {
				rt.encPublish(t.LP, pre, cur)
			}
		}
		it := wire.ValidateItem{LP: t.LP}
		if curSum == t.Sum {
			it.Form = wire.ValidateCurrent
		} else {
			// The peer's baseline differs from the current value. Its exact
			// bytes are known to us only if our served record hashes to the
			// offered sum; then — and only then — a delta against it is sound.
			if base := sv[t.LP]; base != nil && wire.Sum64(base) == t.Sum {
				runs := delta.Diff(base, cur, delta.DefaultGap)
				if runs != nil && pad4(delta.EncodedSize(runs)) < pad4(len(cur)) {
					it.Form = wire.ValidateDelta
					it.Bytes = delta.Encode(runs)
				}
			}
			if it.Form == 0 {
				it.Form = wire.ValidateFull
				it.Bytes = cur
			}
		}
		sv[t.LP] = cur
		out.Items = append(out.Items, it)
		if em != nil {
			accBytes += wire.EncodedLongPtrSize + 8 + (len(it.Bytes)+3)&^3
			// As in buildClosureItems, only flush with tuples still pending
			// so a reply that ends exactly here stays monolithic. Emitted
			// batches are fully encoded into the chunk frame, so the slice
			// is reusable immediately.
			if accBytes >= em.limit && ti+1 < len(p.Tuples) {
				if err := em.emit(nil, out.Items, false); err != nil {
					return
				}
				out.Items = out.Items[:0]
				accBytes = 0
			}
		}
	}
	rt.encTraceServe(encHits, encMisses)
	rt.stats.cohRevalidateMsgs.Add(1)
	if em != nil && em.sent > 0 {
		_ = em.emit(nil, out.Items, true)
		return
	}
	rt.reply(m, wire.KindValidateReply, out.Encode(), nil)
}

// recordServed notes the canonical bytes just shipped to peer in a fetch
// reply, seeding the delta base for future revalidations. Memory-only:
// it changes nothing on the wire.
func (rt *Runtime) recordServed(peer uint32, items []wire.DataItem) {
	if len(items) == 0 {
		return
	}
	rt.warm.mu.Lock()
	defer rt.warm.mu.Unlock()
	if rt.warm.served == nil {
		rt.warm.served = make(map[uint32]map[wire.LongPtr][]byte)
	}
	sv := rt.warm.served[peer]
	if sv == nil {
		sv = make(map[wire.LongPtr][]byte, len(items))
		rt.warm.served[peer] = sv
	}
	for _, it := range items {
		sv[it.LP] = it.Bytes
	}
}
