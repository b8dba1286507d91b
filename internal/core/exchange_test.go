package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// TestLazyStreamedReplyCompletes: the lazy policy's per-dereference fetch
// runs on the same exchange as every other request, so a reply the origin
// chooses to stream is received like any other. The origin's tiny chunk
// size streams even one-object replies; the callee's deadline turns a
// dropped stream into a failure instead of a hang.
func TestLazyStreamedReplyCompletes(t *testing.T) {
	net, caller, callees := streamNet(t, 1,
		func(o *Options) {
			o.Policy = PolicyLazy
			o.StreamChunkBytes = 8
		},
		func(o *Options) {
			o.Policy = PolicyLazy
			o.CallTimeout = time.Second
		})
	callee := callees[0]
	registerSumProc(t, callee)
	root := buildTree(t, caller, 3)
	res := sessionCall(t, caller, callee.ID(), "sumTree", root)
	if got := res[0].Int64(); got != wantSum(3) {
		t.Fatalf("remote sum = %d, want %d", got, wantSum(3))
	}
	if n := net.Stats().KindMessages(uint32(wire.KindFetchChunk)); n == 0 {
		t.Error("no chunk frames on the wire — the origin never streamed")
	}
	if got, want := callee.Stats().FetchesSent, uint64(1)<<3-1; got != want {
		t.Errorf("lazy callee sent %d callbacks, want %d", got, want)
	}
}

// TestRemoteErrorTextNeverFences: an application error whose text merely
// contains the restart sentinel's text is still an application error at
// the caller — only the reply's typed code re-types a remote failure as
// ErrOriginRestarted.
func TestRemoteErrorTextNeverFences(t *testing.T) {
	caller, callee := pair(t, nil)
	msg := "disk quota: " + ErrOriginRestarted.Error()
	if err := callee.Register("fail", func(*Ctx, []Value) ([]Value, error) {
		return nil, errors.New(msg)
	}); err != nil {
		t.Fatal(err)
	}
	if err := caller.BeginSession(); err != nil {
		t.Fatal(err)
	}
	_, err := caller.Call(2, "fail", nil)
	if err == nil || !strings.Contains(err.Error(), msg) {
		t.Fatalf("call error = %v, want the handler's text", err)
	}
	if errors.Is(err, ErrOriginRestarted) {
		t.Fatalf("application error %q typed as ErrOriginRestarted", err)
	}
	if err := caller.EndSession(); err != nil {
		t.Fatal(err)
	}
	if n := caller.Stats().FenceTrips; n != 0 {
		t.Errorf("FenceTrips = %d, want 0", n)
	}
}

// TestChecksumRejectTextNotRetried: an application error whose text equals
// the dispatcher's checksum-reject message is terminal — only the typed
// checksum-reject code marks a reply as a transient wire fault.
func TestChecksumRejectTextNotRetried(t *testing.T) {
	origin, client, _ := recoverNet(t, &flakyNode{}, nil)
	if err := origin.Register("fail", func(*Ctx, []Value) ([]Value, error) {
		return nil, errors.New(checksumRejectErr)
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.BeginSession(); err != nil {
		t.Fatal(err)
	}
	_, err := client.Call(1, "fail", nil)
	if err == nil || !strings.Contains(err.Error(), checksumRejectErr) {
		t.Fatalf("call error = %v, want the handler's text", err)
	}
	if err := client.EndSession(); err != nil {
		t.Fatal(err)
	}
	if st := client.Stats(); st.Retries != 0 || st.RetriesExhausted != 0 {
		t.Errorf("application error retried: Retries = %d, RetriesExhausted = %d, want 0",
			st.Retries, st.RetriesExhausted)
	}
}

// TestNestedRestartTypedAcrossHops: a fence trip two hops down the call
// chain crosses the intermediate hop as a typed reply code, so the ground
// caller can still match ErrOriginRestarted.
func TestNestedRestartTypedAcrossHops(t *testing.T) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = net.Close() })
	reg := newTestRegistry(t)
	mk := func(id, inc uint32) *Runtime {
		node, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Options{ID: id, Node: node, Registry: reg, Incarnation: inc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	ground, middle, origin := mk(1, 0), mk(2, 0), mk(3, 1)
	root := treeNodeLPs(t, origin, buildTree(t, origin, 3))[0]
	if err := middle.Register("walk", func(ctx *Ctx, _ []Value) ([]Value, error) {
		v, err := ctx.Runtime().ImportPtr(root)
		if err != nil {
			return nil, err
		}
		sum, err := sumTree(ctx.Runtime(), v)
		if err != nil {
			return nil, err
		}
		return []Value{Int64Value(sum)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Session 1 records the origin's incarnation at the middle hop.
	res := sessionCall(t, ground, 2, "walk")
	if got := res[0].Int64(); got != wantSum(3) {
		t.Fatalf("session 1 sum = %d, want %d", got, wantSum(3))
	}

	// The origin restarts with a fresh heap; the middle hop's next fetch
	// trips its fence, and the ground caller must see the typed sentinel.
	_ = origin.Close()
	_ = mk(3, 2)
	if err := ground.BeginSession(); err != nil {
		t.Fatal(err)
	}
	_, err = ground.Call(2, "walk", nil)
	if !errors.Is(err, ErrOriginRestarted) {
		t.Fatalf("call after a nested origin restart: err = %v, want ErrOriginRestarted", err)
	}
	if n := middle.Stats().FenceTrips; n < 1 {
		t.Errorf("middle FenceTrips = %d, want >= 1", n)
	}
	ground.AbortSession()
}
