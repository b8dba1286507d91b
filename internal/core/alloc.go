package core

import (
	"fmt"
	"sort"

	"smartrpc/internal/swizzle"
	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// provisionalBase is the start of the reserved provisional address range.
// Real addresses assigned by vmem are always below it, so a provisional
// long pointer can never collide with a real one.
const provisionalBase = uint32(0xF000_0000)

// NewObject allocates a zeroed object of the given type in the local heap
// and returns a pointer value to it.
func (rt *Runtime) NewObject(ty types.ID) (Value, error) {
	rv, err := rt.res.Resolve(ty)
	if err != nil {
		return Value{}, err
	}
	layout := rv.Layout
	addr, err := rt.space.Alloc(layout.Size, layout.Align)
	if err != nil {
		return Value{}, err
	}
	if err := rt.space.Zero(addr, layout.Size); err != nil {
		return Value{}, err
	}
	return rt.PtrValueAt(addr, ty), nil
}

// ExtendedMalloc is the paper's extended_malloc(address_space_ID,
// data_type_ID) primitive (§3.5): it allocates a memory area in the
// specified address space and returns a swizzled pointer valid locally.
// The actual allocation in the origin space is batched and flushed when
// the thread of control next leaves this space.
func (rt *Runtime) ExtendedMalloc(origin uint32, ty types.ID) (Value, error) {
	if origin == rt.id {
		return rt.NewObject(ty)
	}
	rt.sessMu.Lock()
	sess := rt.sess
	rt.sessMu.Unlock()
	if sess == 0 {
		return Value{}, ErrNoSession
	}
	rv, err := rt.res.Resolve(ty)
	if err != nil {
		return Value{}, err
	}
	layout := rv.Layout

	rt.allocMu.Lock()
	rt.provCount++
	prov := wire.LongPtr{
		Space: origin,
		Addr:  vmem.VAddr(provisionalBase | rt.provCount),
		Type:  ty,
	}
	b, ok := rt.batch[origin]
	if !ok {
		b = &originBatch{}
		rt.batch[origin] = b
	}
	b.allocs = append(b.allocs, provAlloc{lp: prov})
	rt.allocMu.Unlock()

	// Swizzle into a provisional area: born resident, writable, dirty, so
	// the new data travels with the modified data set and is eventually
	// written back to its origin.
	addr, fresh, err := rt.table.SwizzleIn(prov, origin|swizzle.ProvisionalAreaFlag)
	if err != nil {
		return Value{}, err
	}
	if !fresh {
		return Value{}, fmt.Errorf("core: provisional pointer %v collided", prov)
	}
	rt.touchObject(addr)
	if err := rt.space.Zero(addr, layout.Size); err != nil {
		return Value{}, err
	}
	rt.table.MarkResident(addr)
	first := rt.space.PageOf(addr)
	last := rt.space.PageOf(addr + vmem.VAddr(layout.Size-1))
	for pn := first; pn <= last; pn++ {
		if err := rt.space.SetProt(pn, vmem.ProtReadWrite); err != nil {
			return Value{}, err
		}
		if err := rt.space.MarkDirty(pn, true); err != nil {
			return Value{}, err
		}
	}
	return Value{Kind: types.Ptr, Addr: addr, LP: prov, Elem: ty}, nil
}

// ExtendedFree is the paper's extended_free(void *p) primitive (§3.5): it
// releases the memory area referenced by p, whose original location may be
// in another address space. Remote releases are batched like allocations;
// freeing a not-yet-flushed provisional allocation simply cancels it.
func (rt *Runtime) ExtendedFree(v Value) error {
	if v.Kind != types.Ptr || v.Addr == vmem.Null {
		return fmt.Errorf("core: ExtendedFree of non-pointer or null value")
	}
	if rt.space.InHeap(v.Addr) {
		if err := rt.space.Free(v.Addr); err != nil {
			return err
		}
		rt.encInvalidate(v.Addr)
		return nil
	}
	e, ok := rt.table.LookupAddr(v.Addr)
	if !ok {
		return fmt.Errorf("core: ExtendedFree of unknown cache address %#x", uint32(v.Addr))
	}
	lp := e.LP
	// Drop the table entry first: a freed object must never be fetched,
	// shipped with the modified data set, or written back.
	if err := rt.table.Remove(v.Addr); err != nil {
		return err
	}
	rt.warm.dropView(lp)
	rt.allocMu.Lock()
	defer rt.allocMu.Unlock()
	if uint32(lp.Addr) >= provisionalBase {
		// Still provisional: cancel the batched allocation.
		b := rt.batch[lp.Space]
		if b != nil {
			for i := range b.allocs {
				if b.allocs[i].lp == lp {
					b.allocs = append(b.allocs[:i], b.allocs[i+1:]...)
					return nil
				}
			}
		}
		return fmt.Errorf("core: provisional %v not found in batch", lp)
	}
	b, ok := rt.batch[lp.Space]
	if !ok {
		b = &originBatch{}
		rt.batch[lp.Space] = b
	}
	b.frees = append(b.frees, lp)
	return nil
}

// PendingAllocOps reports the number of batched allocation and release
// operations not yet flushed (for tests and diagnostics).
func (rt *Runtime) PendingAllocOps() int {
	rt.allocMu.Lock()
	defer rt.allocMu.Unlock()
	n := 0
	for _, b := range rt.batch {
		n += len(b.allocs) + len(b.frees)
	}
	return n
}

// flushAllocBatches sends every batched allocation/release to its origin
// space in a single message per space (§3.5), then rebinds the provisional
// long pointers to the real addresses the origins assigned. Stored
// ordinary pointers need no rewriting: only the identity maps change.
func (rt *Runtime) flushAllocBatches(sess uint64) error {
	rt.allocMu.Lock()
	batches := rt.batch
	rt.batch = make(map[uint32]*originBatch)
	rt.allocMu.Unlock()

	origins := make([]uint32, 0, len(batches))
	for o := range batches {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, origin := range origins {
		b := batches[origin]
		if len(b.allocs) == 0 && len(b.frees) == 0 {
			continue
		}
		p := wire.AllocBatchPayload{Frees: b.frees}
		for _, a := range b.allocs {
			p.Allocs = append(p.Allocs, wire.AllocReq{Token: uint64(a.lp.Addr), Type: a.lp.Type})
		}
		rt.stats.allocBatches.Add(1)
		rt.trace(Event{Kind: EvAllocFlush, Target: origin, Count: len(p.Allocs) + len(p.Frees)})
		reply, err := rt.roundTrip(wire.Message{
			Kind:    wire.KindAllocBatch,
			Session: sess,
			To:      origin,
			Payload: p.Encode(),
		})
		if err != nil {
			return fmt.Errorf("flush alloc batch to space %d: %w", origin, err)
		}
		rp, err := wire.DecodeAllocReplyPayload(reply.Payload)
		if err != nil {
			return fmt.Errorf("decode alloc reply from space %d: %w", origin, err)
		}
		if len(rp.Addrs) != len(b.allocs) {
			return fmt.Errorf("space %d returned %d addresses for %d allocations",
				origin, len(rp.Addrs), len(b.allocs))
		}
		for i, a := range b.allocs {
			real := wire.LongPtr{Space: origin, Addr: rp.Addrs[i], Type: a.lp.Type}
			evicted, err := rt.table.Rebind(a.lp, real)
			if err != nil {
				return fmt.Errorf("rebind %v -> %v: %w", a.lp, real, err)
			}
			if evicted {
				// The origin reallocated an address this cache still tracked
				// as a dead (non-resident) row; Rebind dropped the row and
				// poisoned its slot. Any later dereference through a local
				// pointer still aimed at that slot is an application-level
				// use-after-free — this event is the marker that explains
				// the poison pattern it will read. The dead row's warm record
				// goes with it.
				rt.warm.dropView(real)
				rt.trace(Event{Kind: EvRebindEvict, Target: origin, LP: real})
			}
		}
		if len(b.allocs) > 0 {
			// Publish all of this batch's rebindings in one copy-on-write
			// step; resolveLP readers never take allocMu.
			rt.allocMu.Lock()
			old := *rt.provMap.Load()
			next := make(map[wire.LongPtr]wire.LongPtr, len(old)+len(b.allocs))
			for k, v := range old {
				next[k] = v
			}
			for i, a := range b.allocs {
				next[a.lp] = wire.LongPtr{Space: origin, Addr: rp.Addrs[i], Type: a.lp.Type}
			}
			rt.provMap.Store(&next)
			rt.allocMu.Unlock()
		}
		// The origin has now served this session even if no call ever
		// reached it; it must be in the participant set so the
		// end-of-session invalidation tears down whatever per-session
		// state this exchange created there.
		rt.mergeParts([]uint32{origin})
	}
	return nil
}

// resolveLP maps a possibly-provisional long pointer to its real,
// origin-assigned identity. Provisional identities are a private naming
// convention between ExtendedMalloc and flushAllocBatches; they must
// never reach the wire, because the origin space has nothing mapped at a
// provisional address. The smart/eager paths are immune (they ship
// identities read from the data allocation table, which Rebind fixes
// up), but lazy mode ships Value.LP by value, so any long pointer that
// is still provisional here forces the batched allocation through now
// and translates through the recorded rebinding.
func (rt *Runtime) resolveLP(lp wire.LongPtr) (wire.LongPtr, error) {
	if uint32(lp.Addr) < provisionalBase || lp.Space == rt.id {
		return lp, nil
	}
	if real, ok := (*rt.provMap.Load())[lp]; ok {
		return real, nil
	}
	rt.sessMu.Lock()
	sess := rt.sess
	rt.sessMu.Unlock()
	if sess == 0 {
		return lp, fmt.Errorf("core: provisional pointer %v outside any session", lp)
	}
	if err := rt.flushAllocBatches(sess); err != nil {
		return lp, fmt.Errorf("resolve provisional %v: %w", lp, err)
	}
	real, ok := (*rt.provMap.Load())[lp]
	if !ok {
		// Flushing did not produce a rebinding: the provisional
		// allocation was cancelled (ExtendedFree) or belongs to another
		// runtime. Either way the pointer is dead.
		return lp, fmt.Errorf("core: provisional pointer %v has no allocation", lp)
	}
	return real, nil
}

// serveAllocBatch performs the batched allocations and releases on the
// origin space and returns the assigned addresses.
func (rt *Runtime) serveAllocBatch(m wire.Message) {
	p, err := wire.DecodeAllocBatchPayload(m.Payload)
	if err != nil {
		rt.reply(m, wire.KindAllocReply, nil, fmt.Errorf("decode: %w", err))
		return
	}
	// Allocation and free mutate the heap region concurrently served
	// fetches encode from: take the write side of the serve lock.
	rt.serveMu.Lock()
	defer rt.serveMu.Unlock()
	var out wire.AllocReplyPayload
	for _, req := range p.Allocs {
		rv, err := rt.res.Resolve(req.Type)
		if err != nil {
			rt.reply(m, wire.KindAllocReply, nil, err)
			return
		}
		layout := rv.Layout
		addr, err := rt.space.Alloc(layout.Size, layout.Align)
		if err != nil {
			rt.reply(m, wire.KindAllocReply, nil, err)
			return
		}
		if err := rt.space.Zero(addr, layout.Size); err != nil {
			rt.reply(m, wire.KindAllocReply, nil, err)
			return
		}
		out.Addrs = append(out.Addrs, addr)
	}
	for _, lp := range p.Frees {
		if lp.Space != rt.id {
			rt.reply(m, wire.KindAllocReply, nil, fmt.Errorf("free of foreign datum %v", lp))
			return
		}
		if err := rt.space.Free(lp.Addr); err != nil {
			rt.reply(m, wire.KindAllocReply, nil, err)
			return
		}
		rt.dropModified(lp)
		rt.encInvalidate(lp.Addr)
	}
	rt.reply(m, wire.KindAllocReply, out.Encode(), nil)
}
