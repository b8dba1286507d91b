package swizzle

import (
	"errors"
	"testing"
	"testing/quick"

	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

const (
	selfID   = 1
	remoteID = 2
	otherID  = 3
)

func testRegistry(t *testing.T) *types.Registry {
	t.Helper()
	r := types.NewRegistry()
	node := &types.Desc{
		ID:   1,
		Name: "TreeNode",
		Fields: []types.Field{
			{Name: "left", Kind: types.Ptr, Elem: 1},
			{Name: "right", Kind: types.Ptr, Elem: 1},
			{Name: "data", Kind: types.Int64},
		},
	}
	big := &types.Desc{
		ID:   2,
		Name: "BigBlob",
		Fields: []types.Field{
			{Name: "payload", Kind: types.Uint8, Count: 10000},
		},
	}
	if err := r.Register(node); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(big); err != nil {
		t.Fatal(err)
	}
	return r
}

func newTable(t *testing.T, policy AllocPolicy) (*Table, *vmem.Space) {
	t.Helper()
	sp, err := vmem.NewSpace(vmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(sp, testRegistry(t), selfID, policy), sp
}

func lp(space uint32, addr vmem.VAddr, ty types.ID) wire.LongPtr {
	return wire.LongPtr{Space: space, Addr: addr, Type: ty}
}

func TestSwizzleNull(t *testing.T) {
	tb, _ := newTable(t, 0)
	addr, fresh, err := tb.Swizzle(wire.LongPtr{})
	if err != nil || addr != vmem.Null || fresh {
		t.Errorf("Swizzle(null) = %#x, %v, %v", uint32(addr), fresh, err)
	}
}

func TestSwizzleLocalPointerIsIdentity(t *testing.T) {
	tb, sp := newTable(t, 0)
	local, err := sp.Alloc(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	addr, fresh, err := tb.Swizzle(lp(selfID, local, 1))
	if err != nil || addr != local || fresh {
		t.Errorf("local swizzle = %#x, %v, %v; want %#x", uint32(addr), fresh, err, uint32(local))
	}
}

func TestSwizzleRemoteAllocatesProtectedArea(t *testing.T) {
	tb, sp := newTable(t, 0)
	remote := lp(remoteID, 0x5000, 1)
	addr, fresh, err := tb.Swizzle(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh {
		t.Error("first swizzle not fresh")
	}
	if !sp.InCache(addr) {
		t.Errorf("swizzled address %#x outside cache region", uint32(addr))
	}
	prot, err := sp.ProtOf(sp.PageOf(addr))
	if err != nil || prot != vmem.ProtNone {
		t.Errorf("protected page area prot = %v, %v; want ---", prot, err)
	}
}

func TestSwizzleIdempotent(t *testing.T) {
	tb, _ := newTable(t, 0)
	remote := lp(remoteID, 0x5000, 1)
	a1, _, err := tb.Swizzle(remote)
	if err != nil {
		t.Fatal(err)
	}
	a2, fresh, err := tb.Swizzle(remote)
	if err != nil || fresh || a2 != a1 {
		t.Errorf("second swizzle = %#x, %v, %v; want %#x, false", uint32(a2), fresh, err, uint32(a1))
	}
	if tb.Len() != 1 {
		t.Errorf("table has %d entries, want 1", tb.Len())
	}
}

// TestDataAllocationTablePaperExample reproduces Table 1 of the paper:
// after pointers A and B are swizzled in the callee, the data allocation
// table holds two rows on the same page with their offsets and long
// pointers.
func TestDataAllocationTablePaperExample(t *testing.T) {
	tb, sp := newTable(t, 0)
	ptrA := lp(remoteID, 0xA000, 1)
	ptrB := lp(remoteID, 0xB000, 1)
	addrA, _, err := tb.Swizzle(ptrA)
	if err != nil {
		t.Fatal(err)
	}
	addrB, _, err := tb.Swizzle(ptrB)
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(addrA) != sp.PageOf(addrB) {
		t.Fatalf("A and B on different pages (%d, %d); heuristic should share one page",
			sp.PageOf(addrA), sp.PageOf(addrB))
	}
	rows := tb.PageEntries(sp.PageOf(addrA))
	if len(rows) != 2 {
		t.Fatalf("table rows on page = %d, want 2", len(rows))
	}
	if rows[0].LP != ptrA || rows[1].LP != ptrB {
		t.Errorf("rows = %+v; want A then B by offset", rows)
	}
	if rows[0].Offset >= rows[1].Offset {
		t.Errorf("offsets not increasing: %d, %d", rows[0].Offset, rows[1].Offset)
	}
}

func TestPerOriginPolicySeparatesPages(t *testing.T) {
	tb, sp := newTable(t, PolicyPerOrigin)
	a, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tb.Swizzle(lp(otherID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(a) == sp.PageOf(b) {
		t.Error("objects from different origins share a page under PolicyPerOrigin")
	}
}

func TestMixedPolicySharesPages(t *testing.T) {
	tb, sp := newTable(t, PolicyMixed)
	a, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tb.Swizzle(lp(otherID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(a) != sp.PageOf(b) {
		t.Error("objects from different origins on different pages under PolicyMixed")
	}
}

func TestSwizzleLargeObjectSpansPages(t *testing.T) {
	tb, sp := newTable(t, 0)
	addr, _, err := tb.Swizzle(lp(remoteID, 0x100, 2)) // 10000-byte blob
	if err != nil {
		t.Fatal(err)
	}
	e, ok := tb.LookupAddr(addr)
	if !ok || e.Size != 10000 {
		t.Fatalf("entry = %+v, %v", e, ok)
	}
	// The whole object is addressable cache space.
	if !sp.InCache(addr + vmem.VAddr(e.Size-1)) {
		t.Error("large object tail outside cache")
	}
}

func TestUnswizzleRoundTrip(t *testing.T) {
	tb, _ := newTable(t, 0)
	remote := lp(remoteID, 0x5000, 1)
	addr, _, err := tb.Swizzle(remote)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tb.Unswizzle(addr, 1)
	if err != nil || got != remote {
		t.Errorf("Unswizzle = %v, %v; want %v", got, err, remote)
	}
}

func TestUnswizzleNull(t *testing.T) {
	tb, _ := newTable(t, 0)
	got, err := tb.Unswizzle(vmem.Null, 1)
	if err != nil || !got.IsNull() {
		t.Errorf("Unswizzle(null) = %v, %v", got, err)
	}
}

func TestUnswizzleHeapPointer(t *testing.T) {
	tb, sp := newTable(t, 0)
	local, _ := sp.Alloc(16, 8)
	got, err := tb.Unswizzle(local, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := lp(selfID, local, 1)
	if got != want {
		t.Errorf("Unswizzle(heap) = %v, want %v", got, want)
	}
}

func TestUnswizzleUnknownCacheAddr(t *testing.T) {
	tb, sp := newTable(t, 0)
	base, _ := sp.AllocCachePages(1)
	if _, err := tb.Unswizzle(base+8, 1); !errors.Is(err, ErrNotSwizzled) {
		t.Errorf("err = %v, want ErrNotSwizzled", err)
	}
}

func TestRebindProvisionalPointer(t *testing.T) {
	tb, _ := newTable(t, 0)
	prov := lp(remoteID, 0xFFFF0001, 1) // provisional address from extended_malloc
	addr, _, err := tb.Swizzle(prov)
	if err != nil {
		t.Fatal(err)
	}
	real := lp(remoteID, 0x00020000, 1)
	evicted, err := tb.Rebind(prov, real)
	if err != nil {
		t.Fatal(err)
	}
	if evicted {
		t.Error("rebind onto a fresh identity reported an eviction")
	}
	// The ordinary pointer is unchanged; identity maps updated.
	got, err := tb.Unswizzle(addr, 1)
	if err != nil || got != real {
		t.Errorf("after rebind Unswizzle = %v, %v; want %v", got, err, real)
	}
	if _, ok := tb.LookupLP(prov); ok {
		t.Error("provisional identity still mapped after rebind")
	}
	if a, ok := tb.LookupLP(real); !ok || a != addr {
		t.Errorf("real identity maps to %#x, %v; want %#x", uint32(a), ok, uint32(addr))
	}
	// Page rows follow.
	e, _ := tb.LookupAddr(addr)
	rows := tb.PageEntries(e.Page)
	if len(rows) != 1 || rows[0].LP != real {
		t.Errorf("page rows after rebind = %+v", rows)
	}
}

func TestRebindErrors(t *testing.T) {
	tb, _ := newTable(t, 0)
	a := lp(remoteID, 0x100, 1)
	b := lp(remoteID, 0x200, 1)
	if _, err := tb.Rebind(a, b); !errors.Is(err, ErrRebindUnknown) {
		t.Errorf("rebind unknown = %v", err)
	}
	if _, _, err := tb.Swizzle(a); err != nil {
		t.Fatal(err)
	}
	baddr, _, err := tb.Swizzle(b)
	if err != nil {
		t.Fatal(err)
	}
	// A RESIDENT row under the target identity is a live datum; rebinding
	// a second datum onto it must fail.
	tb.MarkResident(baddr)
	if _, err := tb.Rebind(a, b); err == nil {
		t.Error("rebind onto resident mapping succeeded")
	}
}

// TestRebindEvictsDeadRow: the origin assigning an address for a fresh
// allocation proves nothing live exists there, so a leftover non-resident
// row under that identity — a plain want, or a stale warm-cache baseline
// surviving an origin-side free/crash-restart and address reuse — is
// evicted and the rebound row takes over the identity.
func TestRebindEvictsDeadRow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stale bool
	}{{"want", false}, {"stale", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tb, sp := newTable(t, 0)
			dead := lp(remoteID, 0x300, 1)
			deadAddr, _, err := tb.Swizzle(dead)
			if err != nil {
				t.Fatal(err)
			}
			if tc.stale {
				tb.MarkResident(deadAddr)
				tb.DemoteAll()
			}
			deadEntry, ok := tb.LookupAddr(deadAddr)
			if !ok {
				t.Fatal("dead row not found before rebind")
			}
			prov := lp(remoteID, 0xFFFF0002, 1)
			provAddr, _, err := tb.Swizzle(prov)
			if err != nil {
				t.Fatal(err)
			}
			evicted, err := tb.Rebind(prov, dead)
			if err != nil {
				t.Fatalf("rebind onto %s row: %v", tc.name, err)
			}
			if !evicted {
				t.Errorf("rebind onto %s row did not report the eviction", tc.name)
			}
			// The dead slot is poisoned: a dangling dereference reads the
			// deterministic pattern, not the slot's previous (stale) bytes.
			buf := make([]byte, deadEntry.Size)
			if err := sp.ReadRaw(deadAddr, buf); err != nil {
				t.Fatalf("read evicted slot: %v", err)
			}
			for _, bb := range buf {
				if bb != rebindPoison {
					t.Errorf("evicted slot bytes = % x, want all %#x", buf, rebindPoison)
					break
				}
			}
			if a, ok := tb.LookupLP(dead); !ok || a != provAddr {
				t.Errorf("identity maps to %#x, %v; want the rebound row %#x",
					uint32(a), ok, uint32(provAddr))
			}
			if _, ok := tb.LookupAddr(deadAddr); ok {
				t.Error("evicted row still reachable by cache address")
			}
			// The evicted row's page bookkeeping must not retain it.
			for _, row := range tb.PageEntries(deadEntry.Page) {
				if row.Addr == deadAddr {
					t.Error("evicted row still listed on its page")
				}
			}
		})
	}
}

func TestInvalidateClearsTable(t *testing.T) {
	tb, _ := newTable(t, 0)
	if _, _, err := tb.Swizzle(lp(remoteID, 0x100, 1)); err != nil {
		t.Fatal(err)
	}
	tb.Invalidate()
	if tb.Len() != 0 {
		t.Errorf("table len after invalidate = %d", tb.Len())
	}
	// Re-swizzling works and produces a fresh area.
	addr, fresh, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil || !fresh || addr == vmem.Null {
		t.Errorf("post-invalidate swizzle = %#x, %v, %v", uint32(addr), fresh, err)
	}
}

func TestEntriesSorted(t *testing.T) {
	tb, _ := newTable(t, PolicyPerOrigin)
	for i := 0; i < 10; i++ {
		if _, _, err := tb.Swizzle(lp(remoteID, vmem.VAddr(0x100+i*16), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, _, err := tb.Swizzle(lp(otherID, vmem.VAddr(0x100+i*16), 1)); err != nil {
			t.Fatal(err)
		}
	}
	es := tb.Entries()
	if len(es) != 20 {
		t.Fatalf("entries = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Page < es[i-1].Page ||
			(es[i].Page == es[i-1].Page && es[i].Offset <= es[i-1].Offset) {
			t.Fatalf("entries not sorted at %d: %+v %+v", i, es[i-1], es[i])
		}
	}
}

// TestEachVisitsLiveRows: Each sees exactly the rows Entries lists, and
// skips removed ones.
func TestEachVisitsLiveRows(t *testing.T) {
	tb, _ := newTable(t, PolicyPerOrigin)
	var gone vmem.VAddr
	for i := 0; i < 10; i++ {
		a, _, err := tb.Swizzle(lp(remoteID, vmem.VAddr(0x100+i*16), 1))
		if err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			gone = a
		}
	}
	if err := tb.Remove(gone); err != nil {
		t.Fatal(err)
	}
	seen := make(map[wire.LongPtr]bool)
	tb.Each(func(e Entry) { seen[e.LP] = true })
	es := tb.Entries()
	if len(seen) != len(es) || len(es) != 9 {
		t.Fatalf("Each saw %d rows, Entries lists %d, want 9", len(seen), len(es))
	}
	for _, e := range es {
		if !seen[e.LP] {
			t.Errorf("Each skipped %v", e.LP)
		}
	}
}

func TestUnknownTypeFails(t *testing.T) {
	tb, _ := newTable(t, 0)
	if _, _, err := tb.Swizzle(lp(remoteID, 0x100, 99)); err == nil {
		t.Error("swizzle with unknown type succeeded")
	}
}

// Property: swizzle is injective (distinct long pointers get distinct,
// non-overlapping addresses) and unswizzle inverts it.
func TestQuickSwizzleInjective(t *testing.T) {
	f := func(addrs []uint32, originSel []bool) bool {
		sp, err := vmem.NewSpace(vmem.Config{})
		if err != nil {
			return false
		}
		reg := types.NewRegistry()
		if err := reg.Register(&types.Desc{
			ID: 1, Name: "N",
			Fields: []types.Field{{Name: "x", Kind: types.Int64}, {Name: "p", Kind: types.Ptr, Elem: 1}},
		}); err != nil {
			return false
		}
		tb := New(sp, reg, selfID, PolicyPerOrigin)
		seen := make(map[vmem.VAddr]wire.LongPtr)
		for i, raw := range addrs {
			if raw == 0 {
				continue
			}
			origin := uint32(remoteID)
			if i < len(originSel) && originSel[i] {
				origin = otherID
			}
			p := lp(origin, vmem.VAddr(raw), 1)
			a, _, err := tb.Swizzle(p)
			if err != nil {
				return false
			}
			if prev, ok := seen[a]; ok && prev != p {
				return false // two long pointers share an address
			}
			seen[a] = p
			back, err := tb.Unswizzle(a, 1)
			if err != nil || back != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMarkResidentAndAllResident(t *testing.T) {
	tb, sp := newTable(t, 0)
	a, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tb.Swizzle(lp(remoteID, 0x200, 1))
	if err != nil {
		t.Fatal(err)
	}
	pn := sp.PageOf(a)
	if tb.AllResident(pn) {
		t.Error("fresh entries reported resident")
	}
	tb.MarkResident(a)
	if tb.AllResident(pn) {
		t.Error("half-resident page reported all-resident")
	}
	tb.MarkResident(b)
	if !tb.AllResident(pn) {
		t.Error("fully installed page not all-resident")
	}
	e, ok := tb.LookupAddr(a)
	if !ok || !e.Resident {
		t.Errorf("entry resident flag = %+v, %v", e, ok)
	}
	rows := tb.PageEntries(pn)
	for _, r := range rows {
		if !r.Resident {
			t.Errorf("page row not resident: %+v", r)
		}
	}
}

func TestAllResidentEmptyPage(t *testing.T) {
	tb, _ := newTable(t, 0)
	if !tb.AllResident(12345) {
		t.Error("page with no entries not trivially resident")
	}
}

func TestMarkResidentUnknownAddrIsNoop(t *testing.T) {
	tb, _ := newTable(t, 0)
	tb.MarkResident(0x4000_0000) // must not panic
}

func TestSealForcesFreshPage(t *testing.T) {
	tb, sp := newTable(t, 0)
	a, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	tb.Seal(sp.PageOf(a))
	b, _, err := tb.Swizzle(lp(remoteID, 0x200, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(b) == sp.PageOf(a) {
		t.Error("entry placed on sealed page")
	}
}

func TestSealUnrelatedPageKeepsArea(t *testing.T) {
	tb, sp := newTable(t, 0)
	a, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	tb.Seal(sp.PageOf(a) + 999)
	b, _, err := tb.Swizzle(lp(remoteID, 0x200, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(b) != sp.PageOf(a) {
		t.Error("unrelated seal closed the open area")
	}
}

func TestRemoveEntry(t *testing.T) {
	tb, sp := newTable(t, 0)
	target := lp(remoteID, 0x100, 1)
	a, _, err := tb.Swizzle(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Remove(a); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.LookupAddr(a); ok {
		t.Error("entry still present after Remove")
	}
	if _, ok := tb.LookupLP(target); ok {
		t.Error("identity still mapped after Remove")
	}
	if rows := tb.PageEntries(sp.PageOf(a)); len(rows) != 0 {
		t.Errorf("page rows after Remove: %+v", rows)
	}
	if err := tb.Remove(a); !errors.Is(err, ErrNotSwizzled) {
		t.Errorf("second Remove err = %v", err)
	}
	// Re-swizzling the identity yields a fresh slot (the old one is not
	// reused).
	b, fresh, err := tb.Swizzle(target)
	if err != nil || !fresh {
		t.Fatalf("re-swizzle = %#x, %v, %v", uint32(b), fresh, err)
	}
	if b == a {
		t.Error("removed slot reused; stale pointers would alias new data")
	}
}

func TestProvisionalAreaSeparation(t *testing.T) {
	tb, sp := newTable(t, 0)
	normal, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	prov, _, err := tb.SwizzleIn(lp(remoteID, 0xF0000001, 1), remoteID|ProvisionalAreaFlag)
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(normal) == sp.PageOf(prov) {
		t.Error("provisional object shares page with fetch-destined data")
	}
}

func TestProvisionalSeparationUnderMixedPolicy(t *testing.T) {
	tb, sp := newTable(t, PolicyMixed)
	normal, _, err := tb.Swizzle(lp(remoteID, 0x100, 1))
	if err != nil {
		t.Fatal(err)
	}
	prov, _, err := tb.SwizzleIn(lp(otherID, 0xF0000001, 1), otherID|ProvisionalAreaFlag)
	if err != nil {
		t.Fatal(err)
	}
	if sp.PageOf(normal) == sp.PageOf(prov) {
		t.Error("mixed policy merged provisional and fetch areas")
	}
}
