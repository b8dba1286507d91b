package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/wire"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // where a traced run writes its spans ("" = nowhere)

	nodes       int // tree and index size (2^k - 1)
	lookups     int // index lookups per session
	setups      int // environment builds behind setup_s
	warmup      int // untimed sessions per client before measuring
	minSessions int // session floor for resolved percentiles
}

// defaultConfig holds the sizes the published numbers use.
func defaultConfig() config {
	return config{nodes: 8191, lookups: 8, setups: 21, warmup: 2, minSessions: 100}
}

// workload is one closed-loop workload.
type workload interface {
	// prepare builds the measured environment, reporting each build's
	// duration through b.setup.
	prepare(b *bench) error
	// clients is the number of client goroutines.
	clients() int
	// flows maps every space id to the thread of control it serves.
	flows() map[uint32]*flow
	// session runs one session of client c and returns its timed span
	// and its class: sessions of one class do the same work, so they put
	// the same frames on the wire. Preparation and checking around the
	// session go through b.untimed.
	session(b *bench, c int) (time.Duration, int, error)
	// stats sums the counters of every runtime the workload created.
	stats() core.Stats
	// runtimes lists the persistent runtimes (tree-cold has none: its
	// pairs pick the phase's tracer up when they are built).
	runtimes() []*core.Runtime
	// footprint reports what the workload keeps between sessions.
	footprint() footprint
	// finish runs the end-of-run oracle.
	finish(b *bench) error
	close()
}

// bench is the state of one benchmark run.
type bench struct {
	cfg   config
	probe *probe

	mu        sync.Mutex
	setupS    []float64
	untimedNs int64
	untimedMs runtime.MemStats // summed deltas of untimed blocks
	firstUs   []float64
	distinct  int64
	errs      []string
}

func newBench(cfg config) *bench { return &bench{cfg: cfg, probe: newProbe()} }

// rec is the active recorder, nil in an untraced phase.
func (b *bench) rec() *recorder { return b.probe.rec.Load() }

// setup times one environment build as a setup_s sample.
func (b *bench) setup(fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	b.mu.Lock()
	b.setupS = append(b.setupS, d)
	b.mu.Unlock()
	return err
}

// untimed runs preparation or checking that is not part of a session.
// Its time and heap allocations are taken out of the phase's totals.
// Only single-client workloads call it while measuring.
func (b *bench) untimed(fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	b.mu.Lock()
	b.untimedNs += int64(d)
	b.untimedMs.Mallocs += m1.Mallocs - m0.Mallocs
	b.untimedMs.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
	b.mu.Unlock()
	return err
}

// fail records a failed session or oracle check.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	if len(b.errs) < 8 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

// noteFirst records one body's first-access delay (traced phases only).
func (b *bench) noteFirst(firstNs int64) {
	b.mu.Lock()
	b.firstUs = append(b.firstUs, float64(firstNs)/1e3)
	b.mu.Unlock()
}

// beginSession opens a session span on f (traced phases only).
func (b *bench) beginSession(f *flow, space uint32) *openSpan {
	rec := b.rec()
	if rec == nil {
		return nil
	}
	f.seen = make(map[wire.LongPtr]struct{})
	o := rec.open(f, "session", space)
	o.s.Session = o.s.ID
	f.sess.Store(o.s.ID)
	return o
}

// endSession closes a session span and counts its distinct derefs.
func (b *bench) endSession(f *flow, o *openSpan) {
	if o == nil {
		return
	}
	o.close()
	f.sess.Store(0)
	b.mu.Lock()
	b.distinct += int64(len(f.seen))
	b.mu.Unlock()
}

// step runs fn as a child span of f named name (traced phases only).
func (b *bench) step(f *flow, name string, space uint32, fn func() error) error {
	rec := b.rec()
	if rec == nil {
		return fn()
	}
	o := rec.open(f, name, space)
	err := fn()
	o.close()
	return err
}

// footprint is the state a workload keeps between sessions: the caching
// runtimes' working set, the origin's heap in use and its encode cache.
type footprint struct {
	cache      core.CacheStats
	originHeap int
	encBytes   uint64
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	latMs             []float64
	attempted, failed int
	wall, busy        time.Duration // busy excludes untimed blocks
	mallocs, allocB   uint64
	heapB             uint64
	gcCycles          uint32
	gcPause           time.Duration
	frames            frameTotals
	classes           map[int]*classTotals // single-client workloads only
	stats             core.Stats
	foot              footprint
	rec               *recorder
}

// classTotals sums the frames of one session class.
type classTotals struct {
	sessions int
	frameTotals
}

// perSession returns frames, bytes and modeled milliseconds per session.
// With session classes each class counts once, so the figures are those
// of the workload's session mix and do not depend on how many sessions
// of each class the run happened to complete.
func (p phaseResult) perSession() (frames, bytes, modelMs float64) {
	add := func(t frameTotals, n float64) {
		f, b := t.allFrames()
		frames += ratio(float64(f), n)
		bytes += ratio(float64(b), n)
		modelMs += ratio(float64(t.cost)/1e6, n)
	}
	if len(p.classes) == 0 {
		add(p.frames, float64(len(p.latMs)))
		return
	}
	for _, c := range p.classes {
		add(c.frameTotals, float64(c.sessions))
	}
	k := float64(len(p.classes))
	return frames / k, bytes / k, modelMs / k
}

// phase drives the workload's clients in a closed loop for d (longer if
// fewer than minSessions completed, up to 3d) with rec attached.
func (b *bench) phase(w workload, d time.Duration, rec *recorder) phaseResult {
	b.probe.rec.Store(rec)
	defer b.probe.rec.Store(nil)
	for _, rt := range w.runtimes() {
		if rec != nil {
			rt.SetTracer(rec)
		} else {
			rt.SetTracer(nil)
		}
	}
	b.mu.Lock()
	b.untimedNs = 0
	b.untimedMs = runtime.MemStats{}
	b.mu.Unlock()

	st0, ft0 := w.stats(), b.probe.totals()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var done atomic.Int64
	more := func() bool {
		el := time.Since(t0)
		return el < d || (done.Load() < int64(b.cfg.minSessions) && el < 3*d)
	}
	n := w.clients()
	classes := make(map[int]*classTotals)
	lats := make([][]float64, n)
	fails := make([]int, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for more() {
				f0 := b.probe.totals()
				dur, class, err := w.session(b, c)
				if err != nil {
					fails[c]++
					b.fail("client %d: %v", c, err)
					continue
				}
				if n == 1 {
					ct := classes[class]
					if ct == nil {
						ct = &classTotals{}
						classes[class] = ct
					}
					ct.sessions++
					ct.frameTotals = ct.frameTotals.add(b.probe.totals().sub(f0))
				}
				lats[c] = append(lats[c], float64(dur)/float64(time.Millisecond))
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)

	r := phaseResult{wall: wall, rec: rec, classes: classes, gcCycles: m1.NumGC - m0.NumGC,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)}
	for c := 0; c < n; c++ {
		r.latMs = append(r.latMs, lats[c]...)
		r.failed += fails[c]
	}
	r.attempted = len(r.latMs) + r.failed
	b.mu.Lock()
	r.busy = wall - time.Duration(b.untimedNs)
	r.mallocs = m1.Mallocs - m0.Mallocs - b.untimedMs.Mallocs
	r.allocB = m1.TotalAlloc - m0.TotalAlloc - b.untimedMs.TotalAlloc
	b.mu.Unlock()
	r.frames = b.probe.totals().sub(ft0)
	r.stats = statsDelta(w.stats(), st0)
	r.foot = w.footprint()
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)
	r.heapB = mh.HeapAlloc
	return r
}
