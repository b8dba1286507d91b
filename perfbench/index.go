package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/transport"
	"smartrpc/internal/types"
	"smartrpc/internal/wire"
)

// Space ids of the index workload: one origin, clients from clientID0.
const (
	originID  uint32 = 10
	clientID0 uint32 = 11
)

// indexClients is the number of client runtimes and goroutines.
const indexClients = 2

// callTimeout bounds every round trip of the TCP workload, so a lost
// frame fails its session instead of hanging the run.
const callTimeout = 10 * time.Second

// indexLookup is one origin holding a binary search tree, reached over
// TCP loopback by two client runtimes, one goroutine each. A session
// imports the root, looks up seeded keys and increments every fourth
// value found. Client c increments only keys whose index is c mod 2, so
// it knows the exact current value of every key it owns.
type indexLookup struct {
	reg  *types.Registry
	keys []int64 // sorted
	init []int64 // initial value of keys[i]
	env  *indexEnv
	cl   [indexClients]indexClient
}

// indexClient is one client's state; only its own goroutine touches it.
type indexClient struct {
	rng *rand.Rand
	inc []int64 // increments this client committed, by key index
	f   *flow
}

// indexEnv is one origin plus its clients over TCP.
type indexEnv struct {
	nodes   []transport.Node
	origin  *core.Runtime
	clients [indexClients]*core.Runtime
	root    wire.LongPtr
}

func newIndexLookup(cfg config) (*indexLookup, error) {
	reg, err := newRegistry()
	if err != nil {
		return nil, err
	}
	if _, err := levelsOf(cfg.nodes); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &indexLookup{reg: reg}
	seen := make(map[int64]bool, cfg.nodes)
	for len(w.keys) < cfg.nodes {
		k := rng.Int63n(1 << 40)
		if !seen[k] {
			seen[k] = true
			w.keys = append(w.keys, k)
		}
	}
	sort.Slice(w.keys, func(i, j int) bool { return w.keys[i] < w.keys[j] })
	w.init = make([]int64, cfg.nodes)
	for i := range w.init {
		w.init[i] = rng.Int63n(1 << 30)
	}
	for c := range w.cl {
		w.cl[c] = indexClient{
			rng: rand.New(rand.NewSource(cfg.seed*31 + int64(c) + 1)),
			inc: make([]int64, cfg.nodes),
			f:   &flow{},
		}
	}
	return w, nil
}

func (w *indexLookup) clients() int { return indexClients }

func (w *indexLookup) flows() map[uint32]*flow {
	m := make(map[uint32]*flow, indexClients)
	for c := range w.cl {
		m[clientID0+uint32(c)] = w.cl[c].f
	}
	return m
}

// newEnv starts the origin and the clients on loopback listeners with
// default Options plus Concurrent and CallTimeout, and builds the index
// in the origin's heap.
func (w *indexLookup) newEnv(b *bench) (*indexEnv, error) {
	e := &indexEnv{}
	mk := func(id uint32, book map[uint32]string) (*core.Runtime, *transport.TCPNode, error) {
		node, err := transport.ListenTCP(id, "127.0.0.1:0", book)
		if err != nil {
			return nil, nil, err
		}
		e.nodes = append(e.nodes, node)
		rt, err := core.New(core.Options{ID: id, Node: b.probe.wrap(node), Registry: w.reg,
			Concurrent: true, CallTimeout: callTimeout})
		return rt, node, err
	}
	origin, onode, err := mk(originID, nil)
	e.origin = origin
	if err != nil {
		e.close()
		return nil, err
	}
	for c := range e.clients {
		if e.clients[c], _, err = mk(clientID0+uint32(c), map[uint32]string{originID: onode.Addr()}); err != nil {
			e.close()
			return nil, err
		}
	}
	root, err := buildIndex(origin, w.keys, w.init)
	if err != nil {
		e.close()
		return nil, err
	}
	e.root = root.LP
	return e, nil
}

func (e *indexEnv) close() {
	for _, rt := range append([]*core.Runtime{e.origin}, e.clients[:]...) {
		if rt != nil {
			_ = rt.Close()
		}
	}
	for _, n := range e.nodes {
		_ = n.Close()
	}
}

func (w *indexLookup) prepare(b *bench) error {
	var err error
	if w.env, err = w.newEnv(b); err != nil {
		return err
	}
	for c := range w.cl {
		for i := 0; i < b.cfg.warmup; i++ {
			if _, _, err := w.session(b, c); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	// Time the set-up on a settled heap, as tree-update does.
	for i := 0; i < b.cfg.setups; i++ {
		var e *indexEnv
		if err := b.setup(func() (err error) {
			e, err = w.newEnv(b)
			return err
		}); err != nil {
			return err
		}
		e.close()
	}
	return nil
}

// lookup is one drawn key lookup.
type lookup struct {
	idx   int
	write bool
}

func (w *indexLookup) session(b *bench, c int) (time.Duration, int, error) {
	cl := &w.cl[c]
	rt := w.env.clients[c]
	n := len(w.keys)
	todo := make([]lookup, b.cfg.lookups)
	for j := range todo {
		if j%4 == 0 {
			// A key this client owns: index c mod indexClients.
			todo[j] = lookup{idx: c + indexClients*cl.rng.Intn((n-c+indexClients-1)/indexClients), write: true}
		} else {
			todo[j] = lookup{idx: cl.rng.Intn(n)}
		}
	}
	space := clientID0 + uint32(c)
	t0 := time.Now()
	ss := b.beginSession(cl.f, space)
	err := b.step(cl.f, "session.begin", space, rt.BeginSession)
	var got []int64
	if err == nil {
		got, err = w.lookups(b, rt, cl.f, todo)
		if err != nil {
			rt.AbortSession()
		} else {
			err = b.step(cl.f, "session.end", space, rt.EndSession)
		}
	}
	b.endSession(cl.f, ss)
	dur := time.Since(t0)
	if err != nil {
		return dur, 0, err
	}
	// Oracle: every value of a key this client owns is exactly the
	// initial value plus its own committed increments; no other value
	// is below its initial value.
	for j, lk := range todo {
		want := w.init[lk.idx] + cl.inc[lk.idx]
		if lk.write {
			cl.inc[lk.idx]++
		}
		if lk.idx%indexClients == c && got[j] != want || got[j] < w.init[lk.idx] {
			return dur, 0, fmt.Errorf("key %d read %d, want %d", lk.idx, got[j], want)
		}
	}
	return dur, 0, nil
}

// lookups runs the session body: import the root and search for each
// drawn key, incrementing the value found where the lookup says so. It
// returns the values read (before increments).
func (w *indexLookup) lookups(b *bench, rt *core.Runtime, f *flow, todo []lookup) ([]int64, error) {
	rec := b.rec()
	a := newAcc(rt, rec, f)
	root, err := rt.ImportPtr(w.env.root)
	if err != nil {
		return nil, err
	}
	got := make([]int64, len(todo))
	for j, lk := range todo {
		key := w.keys[lk.idx]
		v := root
		for {
			if v.IsNullPtr() {
				return nil, fmt.Errorf("key %d not found", key)
			}
			ref, err := a.deref(v)
			if err != nil {
				return nil, err
			}
			k, err := a.int(&ref, "key")
			if err != nil {
				return nil, err
			}
			if k == key {
				if got[j], err = a.int(&ref, "val"); err != nil {
					return nil, err
				}
				if lk.write {
					if err := a.setInt(&ref, "val", got[j]+1); err != nil {
						return nil, err
					}
				}
				break
			}
			side := "left"
			if key > k {
				side = "right"
			}
			if v, err = a.ptr(&ref, side); err != nil {
				return nil, err
			}
		}
	}
	if rec != nil {
		b.noteFirst(a.first)
	}
	return got, nil
}

// finish is the end-of-run oracle: every value in the origin's heap is
// its initial value plus the increments its owning client counted.
func (w *indexLookup) finish(*bench) error {
	rt := w.env.origin
	idx := make(map[int64]int, len(w.keys))
	for i, k := range w.keys {
		idx[k] = i
	}
	seen := 0
	var walk func(v core.Value) error
	walk = func(v core.Value) error {
		if v.IsNullPtr() {
			return nil
		}
		ref, err := rt.Deref(v)
		if err != nil {
			return err
		}
		k, err := ref.Int("key", 0)
		if err != nil {
			return err
		}
		val, err := ref.Int("val", 0)
		if err != nil {
			return err
		}
		i, ok := idx[k]
		if !ok {
			return fmt.Errorf("origin holds unknown key %d", k)
		}
		if want := w.init[i] + w.cl[i%indexClients].inc[i]; val != want {
			return fmt.Errorf("origin key %d holds %d, want %d", i, val, want)
		}
		seen++
		for _, side := range [2]string{"left", "right"} {
			c, err := ref.Ptr(side, 0)
			if err == nil {
				err = walk(c)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	root, err := rt.ImportPtr(w.env.root)
	if err == nil {
		err = walk(root)
	}
	if err == nil && seen != len(w.keys) {
		err = fmt.Errorf("origin index has %d nodes, want %d", seen, len(w.keys))
	}
	return err
}

func (w *indexLookup) stats() core.Stats {
	s := w.env.origin.Stats()
	for _, rt := range w.env.clients {
		s = statsAdd(s, rt.Stats())
	}
	return s
}

func (w *indexLookup) footprint() footprint {
	fp := footprint{originHeap: w.env.origin.Space().HeapInUse(), encBytes: w.env.origin.Stats().EncCacheBytes}
	for _, rt := range w.env.clients {
		c := rt.CacheStats()
		fp.cache.Entries += c.Entries
		fp.cache.ResidentEntries += c.ResidentEntries
		fp.cache.ResidentBytes += c.ResidentBytes
		fp.cache.DirtyPages += c.DirtyPages
	}
	return fp
}

func (w *indexLookup) runtimes() []*core.Runtime {
	return append([]*core.Runtime{w.env.origin}, w.env.clients[:]...)
}

func (w *indexLookup) close() {
	if w.env != nil {
		w.env.close()
	}
}
