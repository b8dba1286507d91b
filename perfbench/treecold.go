package main

import (
	"fmt"
	"math/rand"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/types"
)

// Space ids of the two-space workloads.
const (
	callerID uint32 = 1
	calleeID uint32 = 2
)

// treeCold is the paper's Fig 4 point (smart policy, access ratio 1.0):
// every session runs on a fresh caller/callee pair, and the callee walks
// the caller's whole tree depth-first. The seed permutes the node values
// and draws the walk orders: at each node an order decides which child
// the walk enters first, and session i uses order i mod walkOrders.
type treeCold struct {
	reg   *types.Registry
	data  []int64 // node values by preorder index
	order [walkOrders]uint64
	want  [walkOrders]walkResult
	n     int // sessions run
	f     *flow
	cur   *pair      // the pair of the latest session, open until the next
	done  core.Stats // counters of pairs already closed
}

// walkResult is what the walk procedure returns.
type walkResult struct {
	visited, sum int64
	hash         uint64
}

// pair is one in-process caller/callee pair holding a fresh tree.
type pair struct {
	net            *transport.Network
	caller, callee *core.Runtime
	root           core.Value
	nodes          []core.Value
}

// walkOrders is the number of walk orders a tree-cold run cycles through.
// Orders put different frame counts on the wire; averaging over several
// keeps the per-session figures close from seed to seed.
const walkOrders = 16

func newTreeCold(cfg config) (*treeCold, error) {
	reg, err := newRegistry()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &treeCold{reg: reg, f: &flow{}}
	w.data = make([]int64, cfg.nodes)
	for i, p := range rng.Perm(cfg.nodes) {
		w.data[i] = int64(p + 1)
	}
	for i := range w.order {
		w.order[i] = rng.Uint64()
		if w.want[i], err = shadowWalk(w.data, w.order[i]); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// rightFirst decides the walk order at a node from its value.
func rightFirst(d int64, order uint64) bool { return splitmix(uint64(d)^order)&1 == 1 }

// shadowWalk computes the walk's expected result from the benchmark's
// own model of the tree.
func shadowWalk(data []int64, order uint64) (walkResult, error) {
	levels, err := levelsOf(len(data))
	if err != nil {
		return walkResult{}, err
	}
	var r walkResult
	r.hash = 0xcbf29ce484222325
	var visit func(i, level int)
	visit = func(i, level int) {
		if level == 0 {
			return
		}
		d := data[i]
		r.visited++
		r.sum += d
		r.hash = foldHash(r.hash, d)
		left, right := i+1, i+1+(1<<(level-1))-1
		if rightFirst(d, order) {
			left, right = right, left
		}
		visit(left, level-1)
		visit(right, level-1)
	}
	visit(0, levels)
	return r, nil
}

func (w *treeCold) clients() int            { return 1 }
func (w *treeCold) flows() map[uint32]*flow { return map[uint32]*flow{callerID: w.f, calleeID: w.f} }

// newPair builds a caller/callee pair with default Options and the tree.
func newPair(b *bench, reg *types.Registry, data []int64, register func(*core.Runtime) error) (*pair, error) {
	net, err := transport.NewNetwork(netsim.Model{}, nil, nil)
	if err != nil {
		return nil, err
	}
	p := &pair{net: net}
	mk := func(id uint32) (*core.Runtime, error) {
		node, err := net.Attach(id)
		if err != nil {
			return nil, err
		}
		return core.New(core.Options{ID: id, Node: b.probe.wrap(node), Registry: reg})
	}
	if p.caller, err = mk(callerID); err == nil {
		p.callee, err = mk(calleeID)
	}
	if err == nil {
		err = register(p.callee)
	}
	if err == nil {
		p.root, p.nodes, err = buildTree(p.caller, data)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	if rec := b.rec(); rec != nil {
		p.caller.SetTracer(rec)
		p.callee.SetTracer(rec)
	}
	return p, nil
}

func (p *pair) close() {
	if p.caller != nil {
		_ = p.caller.Close()
	}
	if p.callee != nil {
		_ = p.callee.Close()
	}
	_ = p.net.Close()
}

func (p *pair) stats() core.Stats { return statsAdd(p.caller.Stats(), p.callee.Stats()) }

// footprint reports the callee's cache and the caller's (origin's) heap.
func (p *pair) footprint() footprint {
	return footprint{cache: p.callee.CacheStats(), originHeap: p.caller.Space().HeapInUse(),
		encBytes: p.caller.Stats().EncCacheBytes}
}

func (w *treeCold) newPair(b *bench) (*pair, error) {
	return newPair(b, w.reg, w.data, func(rt *core.Runtime) error {
		return rt.Register("walk", w.walkProc(b))
	})
}

// walkProc is the callee's procedure: a depth-first walk over every node
// reachable from args[0], entering children in the order args[1] seeds.
func (w *treeCold) walkProc(b *bench) core.Handler {
	return func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("walk: want 2 args, got %d", len(args))
		}
		rec := b.rec()
		var hs *openSpan
		if rec != nil {
			hs = rec.open(w.f, "handler", calleeID)
		}
		a := newAcc(ctx.Runtime(), rec, w.f)
		order := args[1].Uint64()
		r := walkResult{hash: 0xcbf29ce484222325}
		var visit func(v core.Value) error
		visit = func(v core.Value) error {
			if v.IsNullPtr() {
				return nil
			}
			ref, err := a.deref(v)
			if err != nil {
				return err
			}
			d, err := a.int(&ref, "data")
			if err != nil {
				return err
			}
			r.visited++
			r.sum += d
			r.hash = foldHash(r.hash, d)
			first, second := "left", "right"
			if rightFirst(d, order) {
				first, second = second, first
			}
			c, err := a.ptr(&ref, first)
			if err == nil {
				err = visit(c)
			}
			if err == nil {
				c, err = a.ptr(&ref, second)
			}
			if err == nil {
				err = visit(c)
			}
			return err
		}
		err := visit(args[0])
		if hs != nil {
			hs.close()
			b.noteFirst(a.first)
		}
		if err != nil {
			return nil, err
		}
		return []core.Value{core.Int64Value(r.visited), core.Int64Value(r.sum), core.Uint64Value(r.hash)}, nil
	}
}

func (w *treeCold) prepare(b *bench) error {
	for i := 0; i < b.cfg.warmup; i++ {
		if _, _, err := w.session(b, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *treeCold) session(b *bench, _ int) (time.Duration, int, error) {
	class := w.n % walkOrders
	w.n++
	var p *pair
	if err := b.untimed(func() error {
		// The previous pair stays open until now, so the heap measured
		// after the last session holds one pair's state.
		w.closePair()
		return b.setup(func() (err error) {
			p, err = w.newPair(b)
			return err
		})
	}); err != nil {
		return 0, class, err
	}
	w.cur = p
	caller := p.caller
	t0 := time.Now()
	ss := b.beginSession(w.f, callerID)
	err := b.step(w.f, "session.begin", callerID, caller.BeginSession)
	var res []core.Value
	if err == nil {
		err = b.step(w.f, "session.call", callerID, func() (err error) {
			res, err = caller.Call(calleeID, "walk", []core.Value{p.root, core.Uint64Value(w.order[class])})
			return err
		})
		if err != nil {
			caller.AbortSession()
		} else {
			err = b.step(w.f, "session.end", callerID, caller.EndSession)
		}
	}
	b.endSession(w.f, ss)
	dur := time.Since(t0)
	if err != nil {
		return dur, class, err
	}
	return dur, class, b.untimed(func() error { return checkWalk(res, w.want[class]) })
}

// closePair closes the current pair, keeping its counters.
func (w *treeCold) closePair() {
	if w.cur != nil {
		w.done = statsAdd(w.done, w.cur.stats())
		w.cur.close()
		w.cur = nil
	}
}

// checkWalk is the tree-cold oracle: every node visited once, the value
// checksum N(N+1)/2, and the visit order the seed prescribes.
func checkWalk(res []core.Value, want walkResult) error {
	if len(res) != 3 {
		return fmt.Errorf("walk returned %d values", len(res))
	}
	got := walkResult{visited: res[0].Int64(), sum: res[1].Int64(), hash: res[2].Uint64()}
	n := want.visited
	if got.visited != n || got.sum != n*(n+1)/2 || got != want {
		return fmt.Errorf("walk result %+v, want %+v", got, want)
	}
	return nil
}

func (w *treeCold) stats() core.Stats {
	if w.cur == nil {
		return w.done
	}
	return statsAdd(w.done, w.cur.stats())
}

// footprint reports the latest pair, which a session leaves open.
func (w *treeCold) footprint() footprint {
	if w.cur == nil {
		return footprint{}
	}
	return w.cur.footprint()
}

// runtimes is empty: each pair takes the phase's tracer when it is built.
func (w *treeCold) runtimes() []*core.Runtime { return nil }

func (w *treeCold) finish(*bench) error { return nil }
func (w *treeCold) close()              { w.closePair() }
