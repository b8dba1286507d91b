package core

import (
	"runtime"
	"testing"

	"smartrpc/internal/vmem"
	"smartrpc/internal/wire"
)

// warmPair builds a caller/callee pair with invariant checking on, so
// every warm-cache exchange is also validated by the checker.
func warmPair(t *testing.T, mut func(id uint32, o *Options)) (*Runtime, *Runtime) {
	t.Helper()
	return pair(t, func(id uint32, o *Options) {
		o.CheckInvariants = true
		if mut != nil {
			mut(id, o)
		}
	})
}

func TestWarmSecondSessionAllTokens(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4) // 15 nodes

	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != wantSum(4) {
		t.Fatalf("first session sum = %d, want %d", got, wantSum(4))
	}
	cold := callee.Stats()
	if cold.CohRevalidateHits != 0 || cold.CohRevalidateMisses != 0 {
		t.Fatalf("revalidation counters nonzero after first session: %+v", cold)
	}
	if cold.ItemsInstalled != 15 {
		t.Fatalf("first session installed %d items, want 15", cold.ItemsInstalled)
	}

	// Nothing changed: the second session must promote every cached node
	// with zero-byte tokens and install nothing new.
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != wantSum(4) {
		t.Fatalf("second session sum = %d, want %d", got, wantSum(4))
	}
	warm := callee.Stats()
	if warm.CohRevalidateHits != 15 {
		t.Errorf("revalidate hits = %d, want 15", warm.CohRevalidateHits)
	}
	if warm.CohRevalidateMisses != 0 {
		t.Errorf("revalidate misses = %d, want 0", warm.CohRevalidateMisses)
	}
	if warm.CohRevalidateBytes != 0 {
		t.Errorf("revalidate bytes = %d, want 0 (tokens only)", warm.CohRevalidateBytes)
	}
	if warm.ItemsInstalled != cold.ItemsInstalled {
		t.Errorf("second session re-installed items: %d -> %d (want no full refetches of unchanged data)",
			cold.ItemsInstalled, warm.ItemsInstalled)
	}
}

func TestWarmMutationShipsOnlyChangedData(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	sessionCall(t, caller, 2, "sumTree", root)

	// Mutate one node in the owner's heap between sessions.
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("data", 0, 1000); err != nil {
		t.Fatal(err)
	}

	want := wantSum(4) - 1 + 1000
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != want {
		t.Fatalf("post-mutation sum = %d, want %d", got, want)
	}
	s := callee.Stats()
	if s.CohRevalidateMisses != 1 {
		t.Errorf("revalidate misses = %d, want 1 (only the mutated node)", s.CohRevalidateMisses)
	}
	if s.CohRevalidateHits != 14 {
		t.Errorf("revalidate hits = %d, want 14", s.CohRevalidateHits)
	}
	if s.CohRevalidateBytes == 0 {
		t.Error("mutated node shipped zero bytes")
	}
	// The changed node should travel as a range delta, far below its
	// 40-byte canonical encoding.
	if s.CohRevalidateBytes >= 40 {
		t.Errorf("mutated node shipped %d bytes; expected a delta smaller than the full body", s.CohRevalidateBytes)
	}
}

func TestWarmRepeatedSessionsStayCoherent(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	base := wantSum(4) - 1
	for i := int64(0); i < 5; i++ {
		if err := ref.SetInt("data", 0, 100+i); err != nil {
			t.Fatal(err)
		}
		want := base + 100 + i
		if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != want {
			t.Fatalf("session %d sum = %d, want %d", i, got, want)
		}
	}
	s := callee.Stats()
	// Sessions 2..5: each revalidates 15 nodes, 14 unchanged + 1 changed.
	if s.CohRevalidateHits != 4*14 {
		t.Errorf("revalidate hits = %d, want %d", s.CohRevalidateHits, 4*14)
	}
	if s.CohRevalidateMisses != 4 {
		t.Errorf("revalidate misses = %d, want 4", s.CohRevalidateMisses)
	}
}

func TestWarmCalleeModificationTokensAfterWriteBack(t *testing.T) {
	// The callee modifies cached data; the write-back makes the origin's
	// heap equal to the callee's cache, so the next session must still be
	// all tokens — the hash check sees through the round trip.
	caller, callee := warmPair(t, nil)
	err := callee.Register("bump", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		v, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		if err := ref.SetInt("data", 0, v+1); err != nil {
			return nil, err
		}
		return []Value{Int64Value(v + 1)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 1)
	if got := sessionCall(t, caller, 2, "bump", root)[0].Int64(); got != 2 {
		t.Fatalf("first bump = %d, want 2", got)
	}
	if got := sessionCall(t, caller, 2, "bump", root)[0].Int64(); got != 3 {
		t.Fatalf("second bump = %d, want 3", got)
	}
	s := callee.Stats()
	if s.CohRevalidateHits != 1 || s.CohRevalidateMisses != 0 {
		t.Errorf("callee-modified datum revalidated as hits=%d misses=%d, want 1/0",
			s.CohRevalidateHits, s.CohRevalidateMisses)
	}
}

func TestWarmAbortClearsBaselines(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 3)
	sessionCall(t, caller, 2, "sumTree", root)

	// An abort must drop the warm state: the next session pays full
	// fetches again, and still computes the right answer.
	callee.AbortSession()
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != wantSum(3) {
		t.Fatalf("post-abort sum = %d, want %d", got, wantSum(3))
	}
	if s := callee.Stats(); s.CohRevalidateHits != 0 || s.CohRevalidateMisses != 0 {
		t.Errorf("aborted cache still revalidated: hits=%d misses=%d",
			s.CohRevalidateHits, s.CohRevalidateMisses)
	}
}

func TestWarmDisabledNeverValidates(t *testing.T) {
	caller, callee := warmPair(t, func(id uint32, o *Options) { o.DisableWarmCache = true })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 4)
	sessionCall(t, caller, 2, "sumTree", root)
	sessionCall(t, caller, 2, "sumTree", root)
	s := callee.Stats()
	if s.CohRevalidateMsgs != 0 || s.CohRevalidateHits != 0 {
		t.Errorf("warm-disabled runtime revalidated: %+v", s)
	}
	if s.ItemsInstalled != 30 {
		t.Errorf("items installed = %d, want 30 (two full sessions)", s.ItemsInstalled)
	}
}

func TestWarmFreedDatumDegradesCleanly(t *testing.T) {
	// Free a cached-and-demoted datum at its origin between sessions; the
	// revalidation must degrade (server-side encode error) without
	// poisoning the session.
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 1) // a single node
	sessionCall(t, caller, 2, "sumTree", root)

	if err := caller.ExtendedFree(root); err != nil {
		t.Fatal(err)
	}
	// The callee's stale row now points at freed origin memory. A fresh
	// tree reuses the heap; the old row's revalidation (if its page is
	// faulted) must not serve stale bytes. Build a new tree and sum it.
	root2 := buildTree(t, caller, 2)
	if got := sessionCall(t, caller, 2, "sumTree", root2)[0].Int64(); got != wantSum(2) {
		t.Fatalf("post-free sum = %d, want %d", got, wantSum(2))
	}
}

func TestAdaptiveEagernessCountersAccumulate(t *testing.T) {
	caller, callee := warmPair(t, func(id uint32, o *Options) { o.AdaptiveEagerness = true })
	registerSumProc(t, callee)
	root := buildTree(t, caller, 5)
	sessionCall(t, caller, 2, "sumTree", root)
	usage := callee.EagerUsageStats()
	if len(usage) == 0 {
		t.Fatal("no eagerness usage recorded after a session")
	}
	var hits, waste uint64
	for _, u := range usage {
		if u.Origin != caller.ID() {
			t.Errorf("usage recorded for unexpected origin %d", u.Origin)
		}
		hits += u.Hits
		waste += u.Waste
	}
	// The tree walk touches every node, so the closure was all hit.
	if hits != 31 || waste != 0 {
		t.Errorf("usage hits=%d waste=%d, want 31/0", hits, waste)
	}
	// A second, identical session doubles the counters and stays correct.
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != wantSum(5) {
		t.Fatalf("adaptive second session sum = %d", got)
	}
}

func TestAdaptiveEagernessShrinksOnWaste(t *testing.T) {
	// A handler that touches only the root of a large shipped closure
	// wastes most of it; with adaptation on, the callee's budget for the
	// origin must shrink below the configured closure size. Small pages
	// spread the closure out so the page-granular accounting can see the
	// untouched remainder.
	caller, callee := warmPair(t, func(id uint32, o *Options) {
		o.AdaptiveEagerness = true
		o.PageSize = 256
	})
	err := callee.Register("peek", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		v, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(v)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 6) // big closure, mostly unread
	if got := sessionCall(t, caller, 2, "peek", root)[0].Int64(); got != 1 {
		t.Fatalf("peek = %d, want 1", got)
	}
	if b := callee.budgetFor(caller.ID()); b >= callee.ClosureSize() {
		t.Errorf("budget for origin = %d, want < %d after a wasted closure", b, callee.ClosureSize())
	}
	// Still correct with the shrunken budget.
	if got := sessionCall(t, caller, 2, "peek", root)[0].Int64(); got != 1 {
		t.Fatalf("second peek = %d, want 1", got)
	}
}

func TestValidateWireRoundTrip(t *testing.T) {
	// The request/reply payloads used by the warm path survive a codec
	// round trip with hash fidelity (belt over the fuzz targets).
	p := wire.ValidatePayload{Tuples: []wire.ValidateTuple{
		{LP: wire.LongPtr{Space: 1, Addr: 0x10000, Type: 1}, Ver: 7, Sum: wire.Sum64([]byte("abc"))},
	}}
	q, err := wire.DecodeValidatePayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tuples) != 1 || q.Tuples[0] != p.Tuples[0] {
		t.Fatalf("round trip changed tuples: %+v vs %+v", p.Tuples, q.Tuples)
	}
	r := wire.ValidateReplyPayload{Items: []wire.ValidateItem{
		{LP: p.Tuples[0].LP, Form: wire.ValidateCurrent},
		{LP: wire.LongPtr{Space: 1, Addr: 0x10040, Type: 1}, Form: wire.ValidateFull, Bytes: []byte{1, 2, 3, 4}},
	}}
	rr, err := wire.DecodeValidateReplyPayload(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Items) != 2 || rr.Items[0].Form != wire.ValidateCurrent || len(rr.Items[1].Bytes) != 4 {
		t.Fatalf("reply round trip changed items: %+v", rr.Items)
	}
}

// warmViewOf returns rt's revalidation record for lp and whether its hash
// would be reused without re-encoding (its page-version snapshot is
// current for the row's address).
func warmViewOf(t *testing.T, rt *Runtime, lp wire.LongPtr) (v warmView, ok, reusable bool) {
	t.Helper()
	addr, found := rt.table.LookupLP(lp)
	if !found {
		t.Fatalf("no table row for %v", lp)
	}
	rt.warm.mu.Lock()
	v, ok = rt.warm.views[lp]
	rt.warm.mu.Unlock()
	return v, ok, ok && v.reusable(rt.space, addr)
}

// TestWarmCarriedHashGetsDelta: a hash recorded when session 2
// token-promoted the datum is carried, unchanged and without a
// re-encode, into session 3; after the origin rewrites one field the
// origin answers it with a range delta, which the client applies to a
// re-encode of its protected page.
func TestWarmCarriedHashGetsDelta(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 1) // one node, data = 1
	sessionCall(t, caller, 2, "sumTree", root)
	sessionCall(t, caller, 2, "sumTree", root)
	if s := callee.Stats(); s.CohRevalidateHits != 1 {
		t.Fatalf("session 2 revalidate hits = %d, want 1", s.CohRevalidateHits)
	}
	v, ok, reusable := warmViewOf(t, callee, root.LP)
	if !ok || !reusable {
		t.Fatalf("after the token: record present=%v reusable=%v, want a carried hash", ok, reusable)
	}

	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("data", 0, 77); err != nil {
		t.Fatal(err)
	}
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != 77 {
		t.Fatalf("session 3 sum = %d, want 77", got)
	}
	s := callee.Stats()
	if s.CohRevalidateMisses != 1 {
		t.Fatalf("session 3 revalidate misses = %d, want 1", s.CohRevalidateMisses)
	}
	rv, err := callee.res.Resolve(nodeType)
	if err != nil {
		t.Fatal(err)
	}
	if s.CohRevalidateBytes == 0 || s.CohRevalidateBytes >= uint64(rv.Canon) {
		t.Errorf("changed node shipped %d bytes; want a delta below the %d-byte body", s.CohRevalidateBytes, rv.Canon)
	}
	// The delta install rewrote the page, so the carried hash is spent.
	if after, _, reusable := warmViewOf(t, callee, root.LP); reusable || after.sum != v.sum {
		t.Errorf("after the delta install: reusable=%v sum changed=%v; want a spent, unchanged record",
			reusable, after.sum != v.sum)
	}
}

// TestWarmClientWriteForcesReencode: a datum the client writes after its
// hash was recorded must be re-encoded before the next offer. The stale
// hash would draw a delta; the fresh one matches the written-back value
// and draws a token.
func TestWarmClientWriteForcesReencode(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	err := callee.Register("bump", func(ctx *Ctx, args []Value) ([]Value, error) {
		ref, err := ctx.Runtime().Deref(args[0])
		if err != nil {
			return nil, err
		}
		v, err := ref.Int("data", 0)
		if err != nil {
			return nil, err
		}
		return nil, ref.SetInt("data", 0, v+10)
	})
	if err != nil {
		t.Fatal(err)
	}
	root := buildTree(t, caller, 1) // data = 1
	sessionCall(t, caller, 2, "sumTree", root)
	sessionCall(t, caller, 2, "bump", root) // token-promotes, then writes
	if s := callee.Stats(); s.CohRevalidateHits != 1 {
		t.Fatalf("session 2 revalidate hits = %d, want 1", s.CohRevalidateHits)
	}
	if _, ok, reusable := warmViewOf(t, callee, root.LP); !ok || reusable {
		t.Fatalf("after the write: record present=%v reusable=%v, want a spent record", ok, reusable)
	}
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != 11 {
		t.Fatalf("session 3 sum = %d, want 11", got)
	}
	if s := callee.Stats(); s.CohRevalidateHits != 2 || s.CohRevalidateMisses != 0 {
		t.Errorf("session 3 revalidated hits=%d misses=%d, want 2/0 (fresh hash, token)",
			s.CohRevalidateHits, s.CohRevalidateMisses)
	}
}

// TestWarmNeighbourInstallForcesReencode: a delta install of one datum
// moves the version of the cache page it shares with others, so their
// hashes (recorded on the same offer, before the install) must be
// re-encoded next time, and still match.
func TestWarmNeighbourInstallForcesReencode(t *testing.T) {
	caller, callee := warmPair(t, nil)
	registerSumProc(t, callee)
	root := buildTree(t, caller, 2) // root 1, left 2, right 3: one cache page
	sessionCall(t, caller, 2, "sumTree", root)

	ref, err := caller.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	left, err := ref.Ptr("left", 0)
	if err != nil {
		t.Fatal(err)
	}
	lref, err := caller.Deref(left)
	if err != nil {
		t.Fatal(err)
	}
	if err := lref.SetInt("data", 0, 20); err != nil {
		t.Fatal(err)
	}
	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != 1+20+3 {
		t.Fatalf("session 2 sum = %d, want %d", got, 1+20+3)
	}
	s := callee.Stats()
	if s.CohRevalidateHits != 2 || s.CohRevalidateMisses != 1 {
		t.Fatalf("session 2 revalidated hits=%d misses=%d, want 2/1", s.CohRevalidateHits, s.CohRevalidateMisses)
	}
	rootAddr, _ := callee.table.LookupLP(root.LP)
	leftAddr, _ := callee.table.LookupLP(left.LP)
	if callee.space.PageOf(rootAddr) != callee.space.PageOf(leftAddr) {
		t.Fatal("root and left landed on different cache pages; the test needs them to share one")
	}
	before, ok, reusable := warmViewOf(t, callee, root.LP)
	if !ok || reusable {
		t.Fatalf("root after the neighbour's install: record present=%v reusable=%v, want a spent record", ok, reusable)
	}

	if got := sessionCall(t, caller, 2, "sumTree", root)[0].Int64(); got != 1+20+3 {
		t.Fatalf("session 3 sum = %d, want %d", got, 1+20+3)
	}
	if s := callee.Stats(); s.CohRevalidateHits != 2+3 || s.CohRevalidateMisses != 1 {
		t.Errorf("session 3 revalidated hits=%d misses=%d, want 5/1", s.CohRevalidateHits, s.CohRevalidateMisses)
	}
	after, _, reusable := warmViewOf(t, callee, root.LP)
	if !reusable || after.sum != before.sum || after.ver != before.ver {
		t.Errorf("root re-encoded to ver %d sum %#x reusable=%v; want ver %d sum %#x reusable",
			after.ver, after.sum, reusable, before.ver, before.sum)
	}
}

// TestWarmTeardownBounded pins the cost and the footprint of warm
// teardown on a large cache. Ending a session must not do per-datum work
// (demotion used to re-encode every resident datum into an arena), and
// read-mostly warm sessions must not grow the heap: each recorded
// baseline used to be a sub-slice of its demotion's arena, so one
// surviving baseline pinned the whole arena, session after session.
func TestWarmTeardownBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	caller, callee := pair(t, nil)
	registerSumProc(t, callee)
	const levels = 13 // 8191 nodes
	root := buildTree(t, caller, levels)
	err := callee.Register("path", func(ctx *Ctx, args []Value) ([]Value, error) {
		sum, _, err := walkPath(ctx.Runtime(), args[0], args[1].Int64())
		return []Value{Int64Value(sum)}, err
	})
	if err != nil {
		t.Fatal(err)
	}

	// testing.AllocsPerRun calls f once unmeasured, then once measured:
	// the first call opens a session and reads the whole tree, the
	// measured one only ends it (the callee demotes all 8191 rows).
	calls := 0
	allocs := testing.AllocsPerRun(1, func() {
		if calls++; calls == 1 {
			if err := caller.BeginSession(); err != nil {
				t.Fatal(err)
			}
			res, err := caller.Call(2, "sumTree", []Value{root})
			if err != nil || res[0].Int64() != wantSum(levels) {
				t.Fatalf("sumTree = %v, %v; want %d", res, err, wantSum(levels))
			}
			return
		}
		if err := caller.EndSession(); err != nil {
			t.Fatal(err)
		}
	})
	if callee.table.Len() != 1<<levels-1 {
		t.Fatalf("callee caches %d rows, want %d", callee.table.Len(), 1<<levels-1)
	}
	t.Logf("teardown of %d cached nodes: %.0f allocations", callee.table.Len(), allocs)
	const maxTeardownAllocs = 100
	if allocs > maxTeardownAllocs {
		t.Errorf("ending a session over %d cached nodes allocated %.0f times, want <= %d",
			callee.table.Len(), allocs, maxTeardownAllocs)
	}

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Each session reads one root-to-leaf path after the owner rewrote
	// that path's leaf: a write the callee pays one delta for and never
	// sees again.
	session := func(i int) {
		t.Helper()
		key := int64(i*977) % (1 << (levels - 1))
		_, leaf, err := walkPath(caller, root, key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := caller.Deref(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetInt("data", 0, int64(-1-i)); err != nil {
			t.Fatal(err)
		}
		want, _, err := walkPath(caller, root, key)
		if err != nil {
			t.Fatal(err)
		}
		if got := sessionCall(t, caller, 2, "path", root, Int64Value(key))[0].Int64(); got != want {
			t.Fatalf("session %d: path sum = %d, want %d", i, got, want)
		}
		callee.warm.mu.Lock()
		views := len(callee.warm.views)
		callee.warm.mu.Unlock()
		if rows := callee.table.Len(); views > rows {
			t.Fatalf("session %d: %d warm records for %d table rows", i, views, rows)
		}
	}
	// A first round records every path's hashes; the heap is measured
	// from there.
	for i := 0; i < 20; i++ {
		session(i)
	}
	base := heap()
	for i := 20; i < 220; i++ {
		session(i)
	}
	const maxGrowth = 2 << 20
	grew := int64(heap()) - int64(base)
	t.Logf("heap growth over 200 warm sessions: %d bytes", grew)
	if grew > maxGrowth {
		t.Errorf("200 read-mostly warm sessions grew the heap by %d bytes, want <= %d", grew, maxGrowth)
	}
}

// walkPath descends from v to a leaf, turning right where key has a one
// bit (lowest bit first), and returns the sum of the data fields on the
// way and the last node visited.
func walkPath(rt *Runtime, v Value, key int64) (sum int64, last Value, err error) {
	for !v.IsNullPtr() {
		ref, err := rt.Deref(v)
		if err != nil {
			return 0, last, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return 0, last, err
		}
		sum += d
		last = v
		field := "left"
		if key&1 == 1 {
			field = "right"
		}
		key >>= 1
		if v, err = ref.Ptr(field, 0); err != nil {
			return 0, last, err
		}
	}
	return sum, last, nil
}

// TestWarmViewReusableRule: a recorded hash is reusable only while every
// cache page it was computed from keeps its write version, only at the
// address it was computed for, and never for an object spanning more
// pages than a snapshot holds.
func TestWarmViewReusableRule(t *testing.T) {
	sp, err := vmem.NewSpace(vmem.Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sp.AllocCachePages(encMaxSpanPages + 2)
	if err != nil {
		t.Fatal(err)
	}
	narrow, ok := snapshotPages(sp, base+200, 100) // straddles pages 0 and 1
	if !ok {
		t.Fatal("a two-page object got no snapshot")
	}
	v := warmView{pre: narrow}
	if !v.reusable(sp, base+200) {
		t.Error("fresh snapshot not reusable")
	}
	if v.reusable(sp, base+256+8) {
		t.Error("snapshot reusable for a datum at another address")
	}
	if err := sp.WriteRaw(base+256+100, []byte{1}); err != nil { // second page only
		t.Fatal(err)
	}
	if v.reusable(sp, base+200) {
		t.Error("snapshot still reusable after a write to a page it spans")
	}
	wide, ok := snapshotPages(sp, base, (encMaxSpanPages+1)*256)
	if ok || (&warmView{pre: wide}).reusable(sp, base) {
		t.Errorf("object over %d pages: snapshot ok=%v, want none and never reusable", encMaxSpanPages, ok)
	}
}
