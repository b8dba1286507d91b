package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
	"smartrpc/internal/xdr"
)

// sessionCounter disambiguates sessions started by the same runtime.
var sessionCounter atomic.Uint64

// Ctx carries the session context into a Handler, allowing nested RPCs
// and callbacks (a callee remotely calling its caller, §3.1).
type Ctx struct {
	rt   *Runtime
	from uint32
}

// Runtime returns the runtime executing the handler.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Caller returns the address-space ID of the calling space, the target
// for callbacks.
func (c *Ctx) Caller() uint32 { return c.from }

// Call issues a nested RPC (or a callback when target == Caller()).
func (c *Ctx) Call(target uint32, proc string, args []Value) ([]Value, error) {
	return c.rt.Call(target, proc, args)
}

// BeginSession starts an RPC session with this runtime's thread as the
// ground thread (§3.1). Remote pointers received during the session stay
// valid until EndSession.
func (rt *Runtime) BeginSession() error {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	if rt.sess != 0 {
		return fmt.Errorf("%w (session %#x)", ErrSessionBusy, rt.sess)
	}
	rt.sess = uint64(rt.id)<<32 | (sessionCounter.Add(1) & 0xffffffff)
	rt.ground = true
	rt.parts = make(map[uint32]bool)
	// Defensive: a fresh session must start with no write obligations; a
	// torn-down adopted session that never saw its invalidate could
	// otherwise leak touched addresses into reused cache slots.
	rt.clearTouched()
	rt.pfBegin(rt.sess)
	rt.trace(Event{Kind: EvSessionBegin})
	return nil
}

// Session returns the current session identifier (0 when idle).
func (rt *Runtime) Session() uint64 {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	return rt.sess
}

// EndSession performs the ground runtime's two end-of-session tasks
// (§3.4): write every modified page back to its original address space,
// and multicast an invalidation to every participating space. It then
// invalidates the local cache. Write-backs to distinct origins are
// independent of each other, as are the invalidations, so each phase
// fans out to all its targets concurrently and waits for the acks; the
// phases themselves stay ordered (no space may discard its cache before
// every modification has reached home).
func (rt *Runtime) EndSession() error {
	rt.sessMu.Lock()
	if rt.sess == 0 {
		rt.sessMu.Unlock()
		return ErrNoSession
	}
	if !rt.ground {
		rt.sessMu.Unlock()
		return errors.New("core: EndSession on a non-ground runtime")
	}
	sess := rt.sess
	rt.sessMu.Unlock()

	// Quiesce speculation and streamed-fetch tails first: in-flight
	// prefetches and background chunk drains install into the cache this
	// teardown is about to examine and demote.
	rt.pfDrain()
	rt.drainStreams()

	// Any allocations still batched must reach their origins first, so
	// that dirty data mentions only real addresses. (This may enlarge the
	// participant set — an origin reached only by its alloc batch still
	// needs the invalidation — so the set is snapshotted afterwards.)
	if err := rt.flushAllocBatches(sess); err != nil {
		return fmt.Errorf("end session: %w", err)
	}

	// 1. Examine the modified data set and write each modified page back
	// to the original address space.
	dirty, err := rt.collectDirtyItems()
	if err != nil {
		return fmt.Errorf("end session: %w", err)
	}
	byOrigin := make(map[uint32][]wire.DataItem)
	for _, it := range dirty {
		byOrigin[it.LP.Space] = append(byOrigin[it.LP.Space], it)
	}
	origins := make([]uint32, 0, len(byOrigin))
	for o := range byOrigin {
		origins = append(origins, o)
	}
	slices.Sort(origins)
	sends := make([]wire.Message, 0, len(origins))
	for _, origin := range origins {
		items := byOrigin[origin]
		if origin == rt.id {
			// Locally owned objects cached locally cannot occur (local
			// long pointers are identity-swizzled), but stay safe.
			if err := rt.applyWriteBack(items); err != nil {
				return fmt.Errorf("end session: local write-back: %w", err)
			}
			continue
		}
		// The ship-state transform runs sequentially (it mutates shared
		// per-peer views); only the network round trips overlap below.
		items = rt.deltaShipItems(origin, sess, items, true)
		if len(items) == 0 {
			// The origin already holds every final value (it received
			// them on an earlier crossing): no write-back needed.
			continue
		}
		rt.trace(Event{Kind: EvWriteBackSent, Target: origin, Count: len(items)})
		p := wire.ItemsPayload{Items: items}
		sends = append(sends, wire.Message{
			Kind:    wire.KindWriteBack,
			Session: sess,
			To:      origin,
			Payload: p.Encode(),
		})
	}
	writeBack := func(m wire.Message) error {
		rt.stats.writeBackMsgs.Add(1)
		if _, err := rt.roundTrip(m); err != nil {
			return fmt.Errorf("end session: write back to space %d: %w", m.To, err)
		}
		return nil
	}
	if err := fanOut(sends, writeBack); err != nil {
		return err
	}
	// Write-back targets are participants too: the exchange above
	// recorded ship state on their side of the edge.
	rt.mergeParts(origins)

	rt.sessMu.Lock()
	parts := make([]uint32, 0, len(rt.parts))
	for p := range rt.parts {
		if p != rt.id {
			parts = append(parts, p)
		}
	}
	slices.Sort(parts)
	rt.sessMu.Unlock()

	// 2. Multicast the invalidation to the participating spaces.
	invalidate := func(p uint32) error {
		rt.trace(Event{Kind: EvInvalidateSent, Target: p})
		if _, err := rt.roundTrip(wire.Message{
			Kind:    wire.KindInvalidate,
			Session: sess,
			To:      p,
			Payload: []byte{},
		}); err != nil {
			return fmt.Errorf("end session: invalidate space %d: %w", p, err)
		}
		return nil
	}
	if err := fanOut(parts, invalidate); err != nil {
		return err
	}

	// Local invalidation and session teardown. With the warm cache the
	// invalidation is a demotion: bytes and table rows survive as stale
	// copies revalidated on first use next session (warmcache.go).
	if rt.skipLocalInvalidate {
		// Test-only fault injection: leave the local cache readable across
		// the session boundary so the history checker can prove it catches
		// the resulting stale read. Never set outside tests.
	} else if rt.warmEnabled() {
		rt.demoteWarm()
	} else {
		rt.space.InvalidateCache()
		rt.table.Invalidate()
	}
	// Teardown is session-selective: this runtime may simultaneously be a
	// passive origin for other clients' sessions, whose delta baselines
	// and circulating modified sets must survive this session's end.
	rt.clearTouched()
	rt.clearModified(sess)
	rt.coh.clearSession(sess)
	rt.trace(Event{Kind: EvSessionEnd})
	rt.sessMu.Lock()
	rt.sess = 0
	rt.ground = false
	rt.parts = make(map[uint32]bool)
	rt.sessMu.Unlock()
	if rt.checkInv {
		return rt.CheckIdleInvariants()
	}
	return nil
}

// AbortSession unconditionally tears down this runtime's session state
// without any network traffic: the cache and data allocation table are
// invalidated, the modified set, ship state, and batched allocations are
// dropped, and the session identifier is cleared. It is the failure
// recovery path for a session that can no longer complete its protocol —
// a partitioned or crashed peer left EndSession unable to deliver its
// write-backs or invalidations — and mirrors what serveInvalidate does
// when the invalidation does arrive. Modifications to remote data that
// were not yet written home are lost; locally owned heap data is
// untouched.
//
// The abort path never demotes: cached modifications that were not
// written home must not become revalidation baselines, so the warm
// views are cleared along with the cache.
func (rt *Runtime) AbortSession() {
	rt.pfDrain()
	rt.drainStreams()
	rt.warm.clearViews()
	rt.space.InvalidateCache()
	rt.table.Invalidate()
	rt.sessMu.Lock()
	rt.sess = 0
	rt.ground = false
	rt.parts = make(map[uint32]bool)
	rt.sessMu.Unlock()
	rt.allocMu.Lock()
	rt.batch = make(map[uint32]*originBatch)
	rt.allocMu.Unlock()
	// The abort clears are deliberately global (unlike EndSession's):
	// recovery drives every space back to a zero-coherency-state idle, and
	// a wedged peer session's leftovers must not survive it.
	rt.clearTouched()
	rt.clearAllModified()
	rt.coh.clear()
	rt.trace(Event{Kind: EvSessionEnd})
}

// fanOut runs f once per target concurrently and waits for all of them,
// returning the joined errors. One target short-circuits the goroutine
// spawn; the common session (two spaces) pays nothing for the fan-out.
func fanOut[T any](targets []T, f func(T) error) error {
	switch len(targets) {
	case 0:
		return nil
	case 1:
		return f(targets[0])
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, tgt T) {
			defer wg.Done()
			errs[i] = f(tgt)
		}(i, tgt)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// adoptSession joins an incoming message's session, enforcing the
// single-session-at-a-time rule.
func (rt *Runtime) adoptSession(sid uint64, from uint32) error {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	switch rt.sess {
	case 0:
		rt.sess = sid
		rt.ground = false
		rt.parts = map[uint32]bool{from: true}
		rt.pfBegin(sid)
		return nil
	case sid:
		rt.parts[from] = true
		return nil
	default:
		return fmt.Errorf("%w: active %#x, got %#x", ErrSessionBusy, rt.sess, sid)
	}
}

// mergeParts folds a received participant set into the session state.
func (rt *Runtime) mergeParts(parts []uint32) {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	for _, p := range parts {
		if p != rt.id {
			rt.parts[p] = true
		}
	}
}

// partsList snapshots the participant set (including self) for
// piggybacking on Call/Return.
func (rt *Runtime) partsList() []uint32 {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	out := make([]uint32, 0, len(rt.parts)+1)
	out = append(out, rt.id)
	for p := range rt.parts {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Call invokes proc on the target space, blocking until the results come
// back (§3.1: the calling thread is blocked; a thread on the callee
// executes the procedure). Must run inside a session.
func (rt *Runtime) Call(target uint32, proc string, args []Value) ([]Value, error) {
	rt.sessMu.Lock()
	sess := rt.sess
	if sess == 0 {
		rt.sessMu.Unlock()
		return nil, ErrNoSession
	}
	rt.parts[target] = true
	rt.sessMu.Unlock()

	payload, err := rt.buildTransferPayload(sess, target, args)
	if err != nil {
		return nil, fmt.Errorf("call %s@%d: %w", proc, target, err)
	}
	rt.stats.callsSent.Add(1)
	rt.trace(Event{Kind: EvCallSent, Target: target, Proc: proc})
	reply, err := rt.roundTrip(wire.Message{
		Kind:    wire.KindCall,
		Session: sess,
		To:      target,
		Proc:    proc,
		Payload: payload.Encode(),
	})
	if err != nil {
		// Error returns may still carry the callee's modified data set
		// (writes made before the failure are not transactional).
		var re *remoteError
		if errors.As(err, &re) && len(reply.Payload) > 0 {
			if rp, derr := wire.DecodeCallPayload(reply.Payload); derr == nil {
				rt.mergeParts(rp.Parts)
				_ = rt.installItems(target, sess, rp.Items, true)
			}
		}
		return nil, fmt.Errorf("call %s@%d: %w", proc, target, err)
	}
	rp, err := wire.DecodeCallPayload(reply.Payload)
	if err != nil {
		return nil, fmt.Errorf("call %s@%d: decode return: %w", proc, target, err)
	}
	rt.mergeParts(rp.Parts)
	if err := rt.installItems(target, sess, rp.Items, true); err != nil {
		return nil, fmt.Errorf("call %s@%d: install returned data: %w", proc, target, err)
	}
	return rt.argsToValues(rp.Args)
}

// buildTransferPayload assembles the outbound payload for a control
// transfer to peer: converted arguments, the piggybacked modified data
// set, the eager closure (policy dependent), and the participant set. It
// first flushes batched remote allocations (§3.5: "the batch operations
// are performed when the activity of the thread moves to another address
// space"). Every item rides through the delta-shipping transform for the
// peer's edge (cohstate.go), so data the peer already holds crosses the
// boundary as a zero-byte token or a byte-range delta.
func (rt *Runtime) buildTransferPayload(sess uint64, peer uint32, args []Value) (*wire.CallPayload, error) {
	if err := rt.flushAllocBatches(sess); err != nil {
		return nil, err
	}
	wireArgs := make([]wire.Arg, 0, len(args))
	for _, v := range args {
		a, err := rt.valueToArg(v)
		if err != nil {
			return nil, err
		}
		wireArgs = append(wireArgs, a)
	}
	var items []wire.DataItem
	if rt.policy != PolicyLazy {
		dirty, err := rt.collectDirtyItems()
		if err != nil {
			return nil, err
		}
		if rt.coherence == CoherenceWriteBack && len(dirty) > 0 {
			// Ablation: send modifications home instead of along with the
			// thread of control.
			if err := rt.sendDirtyHome(sess, dirty); err != nil {
				return nil, err
			}
		} else {
			items = dirty
		}
		circulating, err := rt.modifiedSetItems(sess)
		if err != nil {
			return nil, err
		}
		items = append(items, circulating...)
	}
	if rt.policy == PolicyEager {
		closure, err := rt.eagerClosureFor(args)
		if err != nil {
			return nil, err
		}
		items = append(items, closure...)
	}
	items = rt.deltaShipItems(peer, sess, items, false)
	if rt.checkInv {
		// A background chunk drain or speculative completion may be
		// installing concurrently; check between install batches, never
		// against one half applied.
		rt.installMu.Lock()
		err := rt.CheckLocalInvariants()
		rt.installMu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return &wire.CallPayload{Args: wireArgs, Items: items, Parts: rt.partsList()}, nil
}

// modifiedSetItems encodes the current values of locally owned data that
// was modified during session sess, so the modified data set keeps
// traveling with the thread of control (§3.4).
func (rt *Runtime) modifiedSetItems(sess uint64) ([]wire.DataItem, error) {
	// The snapshot runs on every boundary crossing; reuse one scratch
	// slice instead of allocating a fresh one each time. The scratch is
	// claimed under modMu for the duration of the call (concurrent
	// claimants fall back to allocating).
	rt.modMu.Lock()
	lps := rt.modScratch[:0]
	rt.modScratch = nil
	for lp := range rt.sessionModified[sess] {
		lps = append(lps, lp)
	}
	rt.modMu.Unlock()
	defer func() {
		rt.modMu.Lock()
		rt.modScratch = lps[:0]
		rt.modMu.Unlock()
	}()
	if len(lps) == 0 {
		return nil, nil
	}
	slices.SortFunc(lps, func(a, b wire.LongPtr) int {
		if c := cmp.Compare(a.Space, b.Space); c != 0 {
			return c
		}
		return cmp.Compare(a.Addr, b.Addr)
	})
	// These are locally owned heap objects, so the snapshot is a cache
	// site too: a datum modified once but re-shipped on every subsequent
	// crossing hits after the first encode (its pages stopped changing).
	items := make([]wire.DataItem, 0, len(lps))
	arena := xdr.NewEncoder(len(lps) * 16)
	spans := make([]encSpan, 0, len(lps))
	hits, misses := 0, 0
	for _, lp := range lps {
		rv, err := rt.res.Resolve(lp.Type)
		if err != nil {
			return nil, err
		}
		var sp encSpan
		if b, _, ok := rt.encLookup(lp); ok {
			hits++
			sp.cached = b
		} else {
			misses++
			sp.pre, sp.publish = rt.encPrepare(lp.Addr, rv.Layout.Size)
			sp.start = arena.Len()
			pure, err := encodeObjectInto(arena, rt.space, rt.table, rt.res, rv.Desc, lp.Addr)
			if err != nil {
				return nil, fmt.Errorf("encode modified %v: %w", lp, err)
			}
			sp.end = arena.Len()
			sp.publish = sp.publish && pure
		}
		items = append(items, wire.DataItem{LP: lp, Dirty: true})
		spans = append(spans, sp)
	}
	backing := arena.Bytes()
	for k := range items {
		s := &spans[k]
		if s.cached != nil {
			items[k].Bytes = s.cached
			continue
		}
		items[k].Bytes = backing[s.start:s.end]
		if s.publish {
			rt.encPublish(items[k].LP, s.pre, items[k].Bytes)
		}
	}
	rt.encTraceServe(hits, misses)
	return items, nil
}

// markModified records lp in session sess's circulating modified set.
func (rt *Runtime) markModified(sess uint64, lp wire.LongPtr) {
	rt.modMu.Lock()
	set := rt.sessionModified[sess]
	if set == nil {
		set = make(map[wire.LongPtr]bool)
		rt.sessionModified[sess] = set
	}
	set[lp] = true
	rt.modMu.Unlock()
}

// dropModified forgets session-modified tracking for lp across every
// session (used when the datum is freed mid-session: the address may be
// recycled, so no session may keep re-encoding it).
func (rt *Runtime) dropModified(lp wire.LongPtr) {
	rt.modMu.Lock()
	for _, set := range rt.sessionModified {
		delete(set, lp)
	}
	rt.modMu.Unlock()
}

// clearModified drops session sess's modified set at its teardown,
// leaving other concurrent sessions' sets untouched.
func (rt *Runtime) clearModified(sess uint64) {
	rt.modMu.Lock()
	delete(rt.sessionModified, sess)
	rt.modMu.Unlock()
}

// clearAllModified resets every session's modified set (the failure
// recovery path).
func (rt *Runtime) clearAllModified() {
	rt.modMu.Lock()
	clear(rt.sessionModified)
	rt.modMu.Unlock()
}

// sendDirtyHome implements the CoherenceWriteBack ablation.
func (rt *Runtime) sendDirtyHome(sess uint64, dirty []wire.DataItem) error {
	byOrigin := make(map[uint32][]wire.DataItem)
	for _, it := range dirty {
		it.Dirty = false // arriving home; no onward obligation
		byOrigin[it.LP.Space] = append(byOrigin[it.LP.Space], it)
	}
	for origin, items := range byOrigin {
		if origin == rt.id {
			if err := rt.applyWriteBack(items); err != nil {
				return err
			}
			continue
		}
		items = rt.deltaShipItems(origin, sess, items, true)
		if len(items) == 0 {
			continue // origin already holds every value
		}
		p := wire.ItemsPayload{Items: items}
		rt.stats.writeBackMsgs.Add(1)
		if _, err := rt.roundTrip(wire.Message{
			Kind:    wire.KindWriteBack,
			Session: sess,
			To:      origin,
			Payload: p.Encode(),
		}); err != nil {
			return fmt.Errorf("write back to space %d: %w", origin, err)
		}
	}
	return nil
}

// serveCall executes one incoming RPC request end to end.
func (rt *Runtime) serveCall(m wire.Message) {
	if err := rt.adoptSession(m.Session, m.From); err != nil {
		rt.reply(m, wire.KindReturn, nil, err)
		return
	}
	p, err := wire.DecodeCallPayload(m.Payload)
	if err != nil {
		rt.reply(m, wire.KindReturn, nil, fmt.Errorf("decode call: %w", err))
		return
	}
	rt.mergeParts(p.Parts)
	if err := rt.installItems(m.From, m.Session, p.Items, true); err != nil {
		rt.reply(m, wire.KindReturn, nil, fmt.Errorf("install: %w", err))
		return
	}
	args, err := rt.argsToValues(p.Args)
	if err != nil {
		rt.reply(m, wire.KindReturn, nil, fmt.Errorf("swizzle args: %w", err))
		return
	}
	rt.procsMu.RLock()
	h, ok := rt.procs[m.Proc]
	rt.procsMu.RUnlock()
	if !ok {
		rt.reply(m, wire.KindReturn, nil, fmt.Errorf("%w: %q", ErrUnknownProc, m.Proc))
		return
	}
	rt.stats.callsServed.Add(1)
	rt.trace(Event{Kind: EvCallServed, Target: m.From, Proc: m.Proc})
	results, err := h(&Ctx{rt: rt, from: m.From}, args)
	if err != nil {
		// The paper's model has no transactions: writes the handler made
		// before failing already happened, so the modified data set still
		// travels back with the (error) return rather than being lost if
		// the session ends next.
		out, perr := rt.buildTransferPayload(m.Session, m.From, nil)
		if perr != nil {
			rt.reply(m, wire.KindReturn, nil, err)
			return
		}
		rt.reply(m, wire.KindReturn, out.Encode(), err)
		return
	}
	out, err := rt.buildTransferPayload(m.Session, m.From, results)
	if err != nil {
		rt.reply(m, wire.KindReturn, nil, fmt.Errorf("build return: %w", err))
		return
	}
	rt.reply(m, wire.KindReturn, out.Encode(), nil)
}

// serveInvalidate implements the end-of-session invalidation on a
// participant (§3.4). With the warm cache enabled the cached pages and
// table rows are demoted to revalidatable stale copies instead of being
// dropped; the seed behavior (discard outright) remains for the other
// policies and for DisableWarmCache.
//
// How much state goes depends on whether this space was adopted into the
// ending session. A participant (rt.sess == m.Session) tears down fully:
// cache, table, session identifier, batched allocations. A space that
// merely served the session as a passive origin — including an origin
// concurrently inside a *different* session of its own, or serving other
// clients' sessions — must lose only the ending session's edges: its
// delta-ship baselines and circulating modified set. Wiping another
// client's baselines here is exactly the single-client assumption this
// split removes ("delta ... without a baseline" failures when sessions
// overlap on one origin).
func (rt *Runtime) serveInvalidate(m wire.Message) {
	// The ending session's exchanges can no longer be retried: the
	// transport delivers each route in FIFO order, so every retry of the
	// session's requests has arrived before this frame did. Their
	// at-most-once replay entries are dead weight now.
	rt.replay.dropSession(m.Session)
	rt.sessMu.Lock()
	adopted := rt.sess == m.Session
	rt.sessMu.Unlock()
	if !adopted {
		rt.clearModified(m.Session)
		rt.coh.clearSession(m.Session)
		if rt.checkInv {
			// Other sessions' serves may be mutating the heap and cache
			// concurrently; hold the serve lock so the checker reads a
			// consistent snapshot.
			rt.serveMu.RLock()
			err := rt.CheckLocalInvariants()
			rt.serveMu.RUnlock()
			if err != nil {
				rt.reply(m, wire.KindInvalidateAck, nil, err)
				return
			}
		}
		rt.reply(m, wire.KindInvalidateAck, nil, nil)
		return
	}
	// Quiesce speculation and streamed-fetch tails before touching the
	// cache (see EndSession). The waits cannot starve the ground's
	// invalidation round trip: this serve runs on a pool worker, so the
	// receive loop keeps routing the fetch replies and chunks the
	// in-flight prefetches and background drains are blocked on.
	rt.pfDrain()
	rt.drainStreams()
	if rt.warmEnabled() {
		rt.demoteWarm()
	} else {
		rt.space.InvalidateCache()
		rt.table.Invalidate()
	}
	rt.sessMu.Lock()
	if rt.sess == m.Session {
		rt.sess = 0
		rt.ground = false
		rt.parts = make(map[uint32]bool)
	}
	rt.sessMu.Unlock()
	rt.allocMu.Lock()
	rt.batch = make(map[uint32]*originBatch)
	rt.allocMu.Unlock()
	// The adopted session's write obligations died with its cache; a
	// leftover touched address would misfire on whatever object a later
	// session's swizzle places at the same cache slot.
	rt.clearTouched()
	rt.clearModified(m.Session)
	rt.coh.clearSession(m.Session)
	if rt.checkInv {
		if err := rt.CheckIdleInvariants(); err != nil {
			rt.reply(m, wire.KindInvalidateAck, nil, err)
			return
		}
	}
	rt.reply(m, wire.KindInvalidateAck, nil, nil)
}

// touchObject records that the cached foreign object at addr carries a
// write-back obligation for the current session: this space wrote it,
// allocated it, or adopted it as a circulating dirty item.
func (rt *Runtime) touchObject(addr vmem.VAddr) {
	rt.touchedMu.Lock()
	if rt.touched == nil {
		rt.touched = make(map[vmem.VAddr]bool)
	}
	rt.touched[addr] = true
	rt.touchedMu.Unlock()
}

// touchedSnapshot returns the current session's touched set (nil when
// nothing was written).
func (rt *Runtime) touchedSnapshot() map[vmem.VAddr]bool {
	rt.touchedMu.Lock()
	defer rt.touchedMu.Unlock()
	return rt.touched
}

// clearTouched drops the touched set at session end or abort.
func (rt *Runtime) clearTouched() {
	rt.touchedMu.Lock()
	rt.touched = nil
	rt.touchedMu.Unlock()
}

// touchedHas reports whether the object at addr carries a write-back
// obligation in the current session.
func (rt *Runtime) touchedHas(addr vmem.VAddr) bool {
	rt.touchedMu.Lock()
	defer rt.touchedMu.Unlock()
	return rt.touched[addr]
}

// collectDirtyItems encodes every touched object on a dirty cache page,
// clears the dirty bits, and drops the pages back to read-only so later
// writes fault again. This is the "modified data set" that travels with
// the thread of control. Dirty pages locate candidates; under
// Options.Concurrent the touched set decides — a resident neighbor that
// shares a dirty page but was never written this session must not
// travel, or its (possibly stale) cached value would overwrite a
// concurrent session's committed write at the origin. Without
// Concurrent the single-active-thread property makes the neighbor's
// bytes identical to the origin's committed value, so page-grain
// shipping (the paper's protocol) stays byte-for-byte intact.
func (rt *Runtime) collectDirtyItems() ([]wire.DataItem, error) {
	pages := rt.space.DirtyPages()
	if len(pages) == 0 {
		return nil, nil
	}
	var touched map[vmem.VAddr]bool
	if rt.concurrent {
		touched = rt.touchedSnapshot()
	}
	slices.Sort(pages)
	dirtySet := make(map[uint32]bool, len(pages))
	for _, pn := range pages {
		dirtySet[pn] = true
	}
	// Encode every resident object whose span touches a dirty page. An
	// object spanning pages may have been modified on any of them.
	var items []wire.DataItem
	arena := xdr.NewEncoder(0)
	var offs []int
	for _, e := range rt.table.Entries() {
		if !e.Resident {
			continue
		}
		first := rt.space.PageOf(e.Addr)
		last := rt.space.PageOf(e.Addr + vmem.VAddr(e.Size-1))
		hit := false
		for pn := first; pn <= last; pn++ {
			if dirtySet[pn] {
				hit = true
				break
			}
		}
		if !hit || (rt.concurrent && !touched[e.Addr]) {
			continue
		}
		rv, err := rt.res.Resolve(e.LP.Type)
		if err != nil {
			return nil, err
		}
		// Cached foreign data: addresses live in the cache region, so the
		// encode cache (keyed by local heap addresses) is not consulted.
		offs = append(offs, arena.Len())
		if _, err := encodeObjectInto(arena, rt.space, rt.table, rt.res, rv.Desc, e.Addr); err != nil {
			return nil, fmt.Errorf("encode dirty %v: %w", e.LP, err)
		}
		items = append(items, wire.DataItem{LP: e.LP, Dirty: true})
	}
	backing := arena.Bytes()
	for k := range items {
		end := len(backing)
		if k+1 < len(offs) {
			end = offs[k+1]
		}
		items[k].Bytes = backing[offs[k]:end]
	}
	// The dirtiness obligation travels with the thread of control: clean
	// the pages and drop writable pages to read-only so later writes
	// fault again. Pages still awaiting data (ProtNone, e.g. a partially
	// resident page that received a circulating modified item) must stay
	// fully protected — raising them would expose zeroed neighbors.
	for _, pn := range pages {
		if err := rt.space.MarkDirty(pn, false); err != nil {
			return nil, err
		}
		prot, err := rt.space.ProtOf(pn)
		if err != nil {
			return nil, err
		}
		if prot == vmem.ProtReadWrite {
			if err := rt.space.SetProt(pn, vmem.ProtRead); err != nil {
				return nil, err
			}
		}
	}
	rt.stats.dirtyItemsSent.Add(uint64(len(items)))
	rt.trace(Event{Kind: EvDirtyCollected, Count: len(items)})
	return items, nil
}

// applyHome installs body into the locally owned heap object at lp: the
// receiving half of the write-back path and of circulating modified
// items arriving home.
func (rt *Runtime) applyHome(lp wire.LongPtr, body []byte) error {
	if lp.Space != rt.id {
		return fmt.Errorf("write-back for foreign datum %v", lp)
	}
	rv, err := rt.res.Resolve(lp.Type)
	if err != nil {
		return err
	}
	if err := decodeObject(rt.space, rt.table, rt.res, rv.Desc, lp.Addr, body); err != nil {
		return fmt.Errorf("apply write-back %v: %w", lp, err)
	}
	// The heap-page version bumps inside the decode already made any cached
	// encoding unreachable; the proactive drop frees it now and keeps the
	// invalidation counter deterministic.
	rt.encInvalidate(lp.Addr)
	return nil
}

// applyWriteBack applies raw full-body items to the local heap (the
// purely local path; wire arrivals go through cohReceive first).
func (rt *Runtime) applyWriteBack(items []wire.DataItem) error {
	for _, it := range items {
		if err := rt.applyHome(it.LP, it.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// serveWriteBack handles a write-back message from the ground runtime (or
// from the CoherenceWriteBack ablation). Items resolve through the ship
// state for the sender's edge, so delta-encoded bodies are patched
// against the recorded view before being applied.
func (rt *Runtime) serveWriteBack(m wire.Message) {
	p, err := wire.DecodeItemsPayload(m.Payload)
	if err != nil {
		rt.reply(m, wire.KindWriteBackAck, nil, fmt.Errorf("decode: %w", err))
		return
	}
	// Applying mutates the heap other serves may be encoding from: take
	// the write side of the serve lock.
	rt.serveMu.Lock()
	defer rt.serveMu.Unlock()
	for _, it := range p.Items {
		full, fresh, err := rt.cohReceive(m.From, m.Session, it)
		if err != nil {
			rt.reply(m, wire.KindWriteBackAck, nil, err)
			return
		}
		if !fresh {
			continue // the heap already holds this value from an earlier crossing
		}
		if err := rt.applyHome(it.LP, full); err != nil {
			rt.reply(m, wire.KindWriteBackAck, nil, err)
			return
		}
	}
	rt.reply(m, wire.KindWriteBackAck, nil, nil)
}

// installItems caches incoming data items from space `from` within
// session sess: the receiving half of fetch replies and of the
// piggybacked modified data set. Items whose origin is this space are
// applied directly to the heap (the modification has come home). For the
// rest, the object's bytes are installed in its protected page area
// slot; a page's protection is released only once every entry on it is
// resident, and released pages are sealed against further allocation so
// first accesses stay detectable.
//
// coh marks items on the coherency path (Call/Return piggybacks): those
// resolve through the ship state for the sender's edge, so delta bodies
// are patched against the recorded view and zero-byte tokens skip the
// decode entirely — the local copy is known current, and only the item's
// dirty obligation is honored. Fetch replies (coh=false) bypass the ship
// state; a delta item there is a protocol error.
func (rt *Runtime) installItems(from uint32, sess uint64, items []wire.DataItem, coh bool) error {
	if len(items) == 0 {
		return nil
	}
	// Installs are serialized: concurrent batches (demand fan-out,
	// prefetch, call returns) may share pages through ride-along wants,
	// and the release-protection decision below must observe a consistent
	// all-resident state.
	rt.installMu.Lock()
	defer rt.installMu.Unlock()
	touched := make(map[uint32]bool)
	dirtyPages := make(map[uint32]bool)
	for _, it := range items {
		body := it.Bytes
		fresh := true
		if coh {
			var err error
			body, fresh, err = rt.cohReceive(from, sess, it)
			if err != nil {
				return err
			}
		} else if it.Delta {
			return fmt.Errorf("core: delta item %v outside the coherency path", it.LP)
		}
		if it.LP.Space == rt.id {
			if fresh {
				if err := rt.applyHome(it.LP, body); err != nil {
					return err
				}
			}
			if it.Dirty && rt.coherence == CoherencePiggyback {
				// Keep the modification circulating until session end so
				// spaces holding older cached copies see it on the next
				// control transfer.
				rt.markModified(sess, it.LP)
			}
			continue
		}
		addr, _, err := rt.table.Swizzle(it.LP)
		if err != nil {
			return err
		}
		if fresh && !coh {
			// An object this session already wrote (or allocated) must not
			// be clobbered by a fetch-path copy arriving afterwards: the
			// bounded eager closure and the prefetcher both over-deliver,
			// and a ride-along body encoded from the origin's pre-write
			// state would silently revert the pending local modification
			// before it is collected. Coherency-path items are exempt — a
			// circulating modified set travels in thread-of-control order,
			// so its value supersedes the local copy (e.g. a chained call
			// that rewrote the same object downstream).
			if e, ok := rt.table.LookupAddr(addr); ok && e.Resident && rt.touchedHas(addr) {
				fresh = false
			}
		}
		if it.Dirty {
			// Adopting a circulating modification adopts its write-back
			// obligation: the item must survive the touched-set filter when
			// this session's modified data set is collected.
			rt.touchObject(addr)
		}
		if fresh {
			rv, err := rt.res.Resolve(it.LP.Type)
			if err != nil {
				return err
			}
			if err := decodeObject(rt.space, rt.table, rt.res, rv.Desc, addr, body); err != nil {
				return fmt.Errorf("install %v: %w", it.LP, err)
			}
			rt.stats.itemsInstalled.Add(1)
			rt.stats.bytesInstalled.Add(uint64(len(body)))
			rt.trace(Event{Kind: EvInstall, LP: it.LP, Count: len(body)})
		}
		rt.table.MarkResident(addr)
		e, _ := rt.table.LookupAddr(addr)
		first := rt.space.PageOf(addr)
		last := rt.space.PageOf(addr + vmem.VAddr(e.Size-1))
		for pn := first; pn <= last; pn++ {
			touched[pn] = true
			if it.Dirty {
				dirtyPages[pn] = true
			}
		}
	}
	pages := make([]uint32, 0, len(touched))
	for pn := range touched {
		pages = append(pages, pn)
	}
	slices.Sort(pages)
	for _, pn := range pages {
		if dirtyPages[pn] {
			if err := rt.space.MarkDirty(pn, true); err != nil {
				return err
			}
		}
		prot, err := rt.space.ProtOf(pn)
		if err != nil {
			return err
		}
		if prot != vmem.ProtNone {
			continue // already released earlier
		}
		if !rt.table.AllResident(pn) {
			continue // neighbors still missing; keep the page protected
		}
		newProt := vmem.ProtRead
		if dirtyPages[pn] {
			newProt = vmem.ProtReadWrite
		}
		if err := rt.space.SetProt(pn, newProt); err != nil {
			return err
		}
		rt.table.Seal(pn)
	}
	if rt.checkInv {
		return rt.CheckLocalInvariants()
	}
	return nil
}
