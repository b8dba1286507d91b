package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// pipelineNet builds a server (id 1) plus n client runtimes (ids 100+i)
// on one in-memory network and returns the network for link-delay
// control. Clients run PolicySmart with the options mutation applied.
func pipelineNet(t testing.TB, n int, mut func(o *Options)) (*transport.Network, *Runtime, []*Runtime) {
	t.Helper()
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	mk := func(id uint32, client bool) *Runtime {
		node, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{ID: id, Node: node, Registry: reg, Policy: PolicySmart}
		if client && mut != nil {
			mut(&o)
		}
		rt, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	server := mk(1, false)
	clients := make([]*Runtime, n)
	for i := range clients {
		clients[i] = mk(100+uint32(i), true)
	}
	return net, server, clients
}

// buildChain links n nodes through their left pointers in rt's heap and
// returns the head's long pointer plus the expected data sum.
func buildChain(t testing.TB, rt *Runtime, n int, base int64) (wire.LongPtr, int64) {
	t.Helper()
	next := NullPtr(nodeType)
	var sum int64
	for i := n; i >= 1; i-- {
		v, err := rt.NewObject(nodeType)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := rt.Deref(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetInt("data", 0, base+int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetPtr("left", 0, next); err != nil {
			t.Fatal(err)
		}
		sum += base + int64(i)
		next = v
	}
	return next.LP, sum
}

// chase walks a chain by dereference inside its own session.
func chase(rt *Runtime, root wire.LongPtr) (int64, error) {
	v, err := rt.ImportPtr(root)
	if err != nil {
		return 0, err
	}
	if err := rt.BeginSession(); err != nil {
		return 0, err
	}
	var sum int64
	for !v.IsNullPtr() {
		ref, err := rt.Deref(v)
		if err != nil {
			return 0, err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return 0, err
		}
		sum += d
		if v, err = ref.Ptr("left", 0); err != nil {
			return 0, err
		}
	}
	if err := rt.EndSession(); err != nil {
		return 0, err
	}
	return sum, nil
}

// TestDemandFaultCoalescesWithPrefetch: with a real link delay widening
// the window, the application's demand fault must land while the
// speculative exchange for the same page is still in flight, and join it
// through the registry instead of re-requesting — the pf_coalesced
// counter proves the join, and the equal fetch counts on both ends prove
// no duplicate request ever went out.
func TestDemandFaultCoalescesWithPrefetch(t *testing.T) {
	net, server, clients := pipelineNet(t, 1, func(o *Options) {
		o.Prefetch = true
		o.ClosureSize = 2048
	})
	cl := clients[0]
	root, want := buildChain(t, server, 1024, 0)

	net.SetLinkDelay(2 * time.Millisecond)
	defer net.SetLinkDelay(0)
	got, err := chase(cl, root)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("chase sum = %d, want %d", got, want)
	}
	st := cl.Stats()
	if st.PfCoalesced == 0 {
		t.Errorf("no demand fault coalesced onto an in-flight prefetch: %+v", st)
	}
	if st.PfIssued == 0 {
		t.Errorf("prefetcher issued no speculative fetches: %+v", st)
	}
	if sent, served := st.FetchesSent, server.Stats().FetchesServed; sent != served {
		t.Errorf("client sent %d fetches, server served %d", sent, served)
	}
	if n := cl.InflightFetches(); n != 0 {
		t.Errorf("%d in-flight registry entries leaked after session end", n)
	}
}

// TestSyncPrefetchOnPartialDemandPage: with a closure budget smaller than
// one page of nodes, the demand-faulted page still holds non-resident
// frontier entries when its own exchange completes, so the prefetcher's
// candidate list includes the very page the demand fault is completing.
// Under SyncPrefetch the speculative completion runs inline on the demand
// goroutine — it must register its own exchange after the demand slot is
// released, not join the goroutine's own still-held in-flight entry and
// deadlock waiting on itself.
func TestSyncPrefetchOnPartialDemandPage(t *testing.T) {
	_, server, clients := pipelineNet(t, 1, func(o *Options) {
		o.Prefetch = true
		o.SyncPrefetch = true
		o.ClosureSize = 128
	})
	cl := clients[0]
	root, want := buildChain(t, server, 256, 0)

	done := make(chan struct{})
	var got int64
	var chaseErr error
	go func() {
		defer close(done)
		got, chaseErr = chase(cl, root)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("chase wedged: inline speculative completion joined its own in-flight entry")
	}
	if chaseErr != nil {
		t.Fatal(chaseErr)
	}
	if got != want {
		t.Fatalf("chase sum = %d, want %d", got, want)
	}
	if n := cl.InflightFetches(); n != 0 {
		t.Errorf("%d in-flight registry entries leaked after session end", n)
	}
}

// TestConcurrentClientFetch drives several Call-free client spaces, each
// chasing its own chain in its own session against one server — the
// server's bounded worker pool serves their FETCH streams concurrently.
// Run under -race this is the serve-pool concurrency check.
func TestConcurrentClientFetch(t *testing.T) {
	const nClients = 4
	_, server, clients := pipelineNet(t, nClients, func(o *Options) {
		o.Prefetch = true
		o.ClosureSize = 1024
	})
	roots := make([]wire.LongPtr, nClients)
	wants := make([]int64, nClients)
	for i := range clients {
		roots[i], wants[i] = buildChain(t, server, 512, int64(i)*1000)
	}

	var wg sync.WaitGroup
	errs := make([]error, nClients)
	sums := make([]int64, nClients)
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Runtime) {
			defer wg.Done()
			sums[i], errs[i] = chase(cl, roots[i])
		}(i, cl)
	}
	wg.Wait()

	var sent uint64
	for i := range clients {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if sums[i] != wants[i] {
			t.Errorf("client %d sum = %d, want %d", i, sums[i], wants[i])
		}
		if n := clients[i].InflightFetches(); n != 0 {
			t.Errorf("client %d leaked %d in-flight registry entries", i, n)
		}
		sent += clients[i].Stats().FetchesSent
	}
	if served := server.Stats().FetchesServed; served != sent {
		t.Errorf("clients sent %d fetches, server served %d", sent, served)
	}
}

// singleLockPending is the pre-sharding pending table: one mutex, one
// map. Kept here solely as the benchmark baseline for the lock-striped
// replacement.
type singleLockPending struct {
	mu sync.Mutex
	m  map[uint64]*waiter
}

func (t *singleLockPending) put(seq uint64, w *waiter) {
	t.mu.Lock()
	t.m[seq] = w
	t.mu.Unlock()
}

func (t *singleLockPending) deliver(m wire.Message) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.m[m.Seq]
	if ok {
		delete(t.m, m.Seq)
		w.push(m)
	}
	return ok
}

// BenchmarkPendingTable measures register/deliver/pop cycles under
// parallel load for the sharded table against a single-mutex map. The
// workload mirrors a one-frame exchange: consecutive sequence numbers
// from one atomic counter, each registered with its goroutine's waiter,
// answered by one reply frame, and popped.
func BenchmarkPendingTable(b *testing.B) {
	run := func(b *testing.B, put func(uint64, *waiter), deliver func(wire.Message) bool) {
		var seq atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			w := &waiter{wake: make(chan struct{}, 1)}
			for pb.Next() {
				s := seq.Add(1)
				put(s, w)
				if !deliver(wire.Message{Kind: wire.KindReturn, Seq: s}) {
					b.Fatal("lost pending entry")
				}
				if _, ok := w.pop(); !ok {
					b.Fatal("delivered frame not queued")
				}
			}
		})
	}
	b.Run("sharded", func(b *testing.B) {
		tab := newPendingTable()
		run(b, tab.put, tab.deliver)
	})
	b.Run("single-lock", func(b *testing.B) {
		tab := &singleLockPending{m: make(map[uint64]*waiter)}
		run(b, tab.put, tab.deliver)
	})
}
