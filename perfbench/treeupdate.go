package main

import (
	"fmt"
	"math/rand"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/types"
)

// treeUpdate keeps one caller/callee pair and one tree for the whole run.
// Before every session the caller rewrites a seeded 5% of the nodes; the
// session then makes two calls, each visiting every node and writing a
// different quarter of them. Every session repeats the same pattern, so
// its wire traffic is the same from session to session.
type treeUpdate struct {
	reg    *types.Registry
	shadow []int64 // the benchmark's model of every node value, by preorder index
	mutate []int   // preorder indices the caller rewrites before each session
	maskM  int64   // caller rewrite: data ^= maskM
	quart  [2]int  // quarter (index mod 4) each call writes
	maskW  [2]int64
	f      *flow
	p      *pair
}

func newTreeUpdate(cfg config) (*treeUpdate, error) {
	reg, err := newRegistry()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &treeUpdate{reg: reg, f: &flow{}}
	w.shadow = make([]int64, cfg.nodes)
	for i := range w.shadow {
		w.shadow[i] = rng.Int63n(1 << 40)
	}
	w.mutate = rng.Perm(cfg.nodes)[:cfg.nodes/20]
	w.maskM = 1 + rng.Int63n(1<<16)
	w.quart[0] = rng.Intn(4)
	w.quart[1] = (w.quart[0] + 1 + rng.Intn(3)) % 4
	w.maskW = [2]int64{1 + rng.Int63n(1<<16), 1 + rng.Int63n(1<<16)}
	return w, nil
}

func (w *treeUpdate) clients() int            { return 1 }
func (w *treeUpdate) flows() map[uint32]*flow { return map[uint32]*flow{callerID: w.f, calleeID: w.f} }

func (w *treeUpdate) prepare(b *bench) error {
	build := func() (*pair, error) {
		return newPair(b, w.reg, w.shadow, func(rt *core.Runtime) error {
			return rt.Register("update", w.updateProc(b))
		})
	}
	var err error
	if w.p, err = build(); err != nil {
		return err
	}
	for i := 0; i < b.cfg.warmup; i++ {
		if _, _, err := w.session(b, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	// Time the set-up on a settled heap: builds right at start-up run
	// under the garbage collector's start-up pacing.
	for i := 0; i < b.cfg.setups; i++ {
		var p *pair
		if err := b.setup(func() (err error) {
			p, err = build()
			return err
		}); err != nil {
			return err
		}
		p.close()
	}
	return nil
}

// updateProc is the callee's procedure: a left-first depth-first walk
// over every node that sums the values it finds and rewrites every node
// whose preorder index is args[1] mod 4 with data ^ args[2].
func (w *treeUpdate) updateProc(b *bench) core.Handler {
	return func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("update: want 3 args, got %d", len(args))
		}
		rec := b.rec()
		var hs *openSpan
		if rec != nil {
			hs = rec.open(w.f, "handler", calleeID)
		}
		a := newAcc(ctx.Runtime(), rec, w.f)
		q, mask := args[1].Int64(), args[2].Int64()
		var idx, sum int64
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
			sum += d
			if idx%4 == q {
				if err := a.setInt(&ref, "data", d^mask); err != nil {
					return err
				}
			}
			idx++
			for _, side := range [2]string{"left", "right"} {
				c, err := a.ptr(&ref, side)
				if err == nil {
					err = visit(c)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		err := visit(args[0])
		if hs != nil {
			hs.close()
			b.noteFirst(a.first)
		}
		if err != nil {
			return nil, err
		}
		return []core.Value{core.Int64Value(idx), core.Int64Value(sum)}, nil
	}
}

func (w *treeUpdate) session(b *bench, _ int) (time.Duration, int, error) {
	p := w.p
	if err := b.untimed(func() error {
		for _, i := range w.mutate {
			ref, err := p.caller.Deref(p.nodes[i])
			if err != nil {
				return err
			}
			w.shadow[i] ^= w.maskM
			if err := ref.SetInt("data", 0, w.shadow[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	var res [2][]core.Value
	t0 := time.Now()
	ss := b.beginSession(w.f, callerID)
	err := b.step(w.f, "session.begin", callerID, p.caller.BeginSession)
	for k := 0; k < 2 && err == nil; k++ {
		err = b.step(w.f, "session.call", callerID, func() (err error) {
			res[k], err = p.caller.Call(calleeID, "update", []core.Value{
				p.root, core.Int64Value(int64(w.quart[k])), core.Int64Value(w.maskW[k])})
			return err
		})
	}
	if err != nil {
		p.caller.AbortSession()
	} else {
		err = b.step(w.f, "session.end", callerID, p.caller.EndSession)
	}
	b.endSession(w.f, ss)
	dur := time.Since(t0)
	if err != nil {
		return dur, 0, err
	}
	return dur, 0, b.untimed(func() error { return w.check(res) })
}

// check is the tree-update oracle: each call saw the values the shadow
// model predicts, and after the session the caller's tree equals the
// shadow model with both calls' writes applied.
func (w *treeUpdate) check(res [2][]core.Value) error {
	n := int64(len(w.shadow))
	for k, r := range res {
		var want int64
		for _, d := range w.shadow {
			want += d
		}
		if len(r) != 2 || r[0].Int64() != n || r[1].Int64() != want {
			return fmt.Errorf("call %d returned %v, want visited %d sum %d", k, r, n, want)
		}
		for i := w.quart[k]; i < len(w.shadow); i += 4 {
			w.shadow[i] ^= w.maskW[k]
		}
	}
	for i, v := range w.p.nodes {
		ref, err := w.p.caller.Deref(v)
		if err != nil {
			return err
		}
		d, err := ref.Int("data", 0)
		if err != nil {
			return err
		}
		if d != w.shadow[i] {
			return fmt.Errorf("node %d holds %d after the session, want %d", i, d, w.shadow[i])
		}
	}
	return nil
}

func (w *treeUpdate) stats() core.Stats { return w.p.stats() }

func (w *treeUpdate) footprint() footprint      { return w.p.footprint() }
func (w *treeUpdate) runtimes() []*core.Runtime { return []*core.Runtime{w.p.caller, w.p.callee} }

func (w *treeUpdate) finish(*bench) error { return nil }

func (w *treeUpdate) close() {
	if w.p != nil {
		w.p.close()
	}
}
