package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// The probe observes the library strictly from outside. Every transport
// node handed to core.New is wrapped, so each frame passed to Node.Send
// is counted, sized and charged to the paper's cost model. In a traced
// phase a recorder additionally timestamps Send/Recv, pairs requests
// with replies by exchange id, keeps spans in memory and collects the
// runtimes' trace events.

// maxKind bounds wire.Kind values the counters index.
const maxKind = 16

// probe holds the always-on frame counters and the optional recorder.
type probe struct {
	epoch  time.Time
	model  netsim.Model
	frames [maxKind]atomic.Uint64
	bytes  [maxKind]atomic.Uint64
	costNs atomic.Int64
	rec    atomic.Pointer[recorder]
}

func newProbe() *probe {
	return &probe{epoch: time.Now(), model: netsim.Ethernet10SPARC()}
}

// now is nanoseconds since the probe's epoch (monotonic).
func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// frameTotals is a snapshot of the frame counters.
type frameTotals struct {
	frames, bytes [maxKind]uint64
	cost          time.Duration
}

func (p *probe) totals() frameTotals {
	var t frameTotals
	for k := range t.frames {
		t.frames[k] = p.frames[k].Load()
		t.bytes[k] = p.bytes[k].Load()
	}
	t.cost = time.Duration(p.costNs.Load())
	return t
}

func (t frameTotals) sub(b frameTotals) frameTotals {
	for k := range t.frames {
		t.frames[k] -= b.frames[k]
		t.bytes[k] -= b.bytes[k]
	}
	t.cost -= b.cost
	return t
}

func (t frameTotals) add(b frameTotals) frameTotals {
	for k := range t.frames {
		t.frames[k] += b.frames[k]
		t.bytes[k] += b.bytes[k]
	}
	t.cost += b.cost
	return t
}

func (t frameTotals) allFrames() (n, bytes uint64) {
	for k := range t.frames {
		n += t.frames[k]
		bytes += t.bytes[k]
	}
	return n, bytes
}

// wrap returns node observed by the probe.
func (p *probe) wrap(node transport.Node) transport.Node {
	return &probeNode{Node: node, p: p, id: node.ID()}
}

// probeNode is a transport.Node that reports to its probe.
type probeNode struct {
	transport.Node
	p  *probe
	id uint32
}

func (n *probeNode) Send(m wire.Message) error {
	size := m.WireSize()
	k := int(m.Kind) % maxKind
	n.p.frames[k].Add(1)
	n.p.bytes[k].Add(uint64(size))
	n.p.costNs.Add(int64(n.p.model.Cost(size)))
	rec := n.p.rec.Load()
	if rec == nil {
		return n.Node.Send(m)
	}
	t0 := n.p.now()
	rec.beforeSend(n.id, &m, t0)
	err := n.Node.Send(m)
	rec.sendDone(t0, n.p.now())
	return err
}

func (n *probeNode) Recv() (wire.Message, error) {
	m, err := n.Node.Recv()
	if err == nil {
		if rec := n.p.rec.Load(); rec != nil {
			rec.received(n.id, &m, n.p.now())
		}
	}
	return m, err
}

// flow is one client's thread of control. It may cross spaces (a call
// carries it into the callee), so spans started anywhere along it find
// their parent here.
type flow struct {
	sess atomic.Int64 // open session span id, 0 between sessions
	top  atomic.Int64 // innermost open span id
	// seen holds the distinct nodes dereferenced in the open session.
	seen map[wire.LongPtr]struct{}
}

// span is one timed interval. Spans of one session share Session.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Session int64  `json:"session"`
	Name    string `json:"name"`
	Space   uint32 `json:"space"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// stamped is one runtime trace event with its arrival time.
type stamped struct {
	At    int64  `json:"at_ns"`
	Kind  string `json:"kind"`
	Space uint32 `json:"space"`
	Peer  uint32 `json:"peer"`
	Count int    `json:"count"`
}

// xkey names one request/reply exchange: requester, responder and the
// exchange id (Seq without the attempt ordinal).
type xkey struct {
	req, resp uint32
	xid       uint64
}

// pending is an exchange whose reply has not arrived yet.
type pending struct {
	id, parent, sess  int64
	kind              wire.Kind
	start             int64
	serveID           int64
	serveAt, serveEnd int64
	savedTop          int64 // flow top to restore when a call returns
}

// recorder keeps a traced phase's spans, send times and trace events.
type recorder struct {
	p      *probe
	nextID atomic.Int64
	flows  map[uint32]*flow // by space id; fixed before the phase

	mu      sync.Mutex
	spans   []span
	sendNs  []float64
	pend    map[xkey]*pending
	events  []stamped
	evCount [64]atomic.Int64
	evSum   [64]atomic.Int64
}

func newRecorder(p *probe, flows map[uint32]*flow) *recorder {
	return &recorder{p: p, flows: flows, pend: make(map[xkey]*pending)}
}

func (r *recorder) id() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// open starts a benchmark span on f: it becomes f's innermost span and
// close restores the previous one.
func (r *recorder) open(f *flow, name string, space uint32) *openSpan {
	o := &openSpan{r: r, f: f, s: span{
		ID: r.id(), Parent: f.top.Load(), Session: f.sess.Load(),
		Name: name, Space: space, Start: r.p.now(),
	}}
	f.top.Store(o.s.ID)
	return o
}

type openSpan struct {
	r *recorder
	f *flow
	s span
}

func (o *openSpan) close() {
	o.s.End = o.r.p.now()
	o.f.top.Store(o.s.Parent)
	o.r.add(o.s)
}

// beforeSend registers a request before it leaves, so a reply can never
// overtake its pending entry, and closes the serve span of a reply.
func (r *recorder) beforeSend(from uint32, m *wire.Message, t int64) {
	xid := wire.SeqXID(m.Seq)
	if m.Kind.ReplyKind() != 0 {
		pe := &pending{id: r.id(), kind: m.Kind, start: t}
		if f := r.flows[from]; f != nil {
			pe.parent, pe.sess = f.top.Load(), f.sess.Load()
		}
		r.mu.Lock()
		r.pend[xkey{from, m.To, xid}] = pe
		r.mu.Unlock()
		return
	}
	if !m.Kind.IsReply() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	pe := r.pend[xkey{m.To, from, xid}]
	if pe == nil || pe.serveEnd != 0 {
		return
	}
	pe.serveEnd = t
	if f := r.flows[from]; f != nil && pe.kind == wire.KindCall {
		// The thread of control returns to the caller.
		f.top.Store(pe.savedTop)
	}
}

func (r *recorder) sendDone(t0, t1 int64) {
	r.mu.Lock()
	r.sendNs = append(r.sendNs, float64(t1-t0))
	r.mu.Unlock()
}

// received stamps a frame's arrival: a request starts its serve span, a
// reply ends its exchange.
func (r *recorder) received(at uint32, m *wire.Message, t int64) {
	xid := wire.SeqXID(m.Seq)
	if m.Kind.ReplyKind() != 0 {
		r.mu.Lock()
		defer r.mu.Unlock()
		pe := r.pend[xkey{m.From, at, xid}]
		if pe == nil || pe.serveAt != 0 {
			return
		}
		pe.serveAt, pe.serveID = t, r.id()
		if f := r.flows[at]; f != nil && m.Kind == wire.KindCall {
			// The thread of control enters the callee: its handler
			// nests under this serve span.
			pe.savedTop = f.top.Swap(pe.serveID)
		}
		return
	}
	if !m.Kind.IsReply() {
		return
	}
	k := xkey{at, m.From, xid}
	r.mu.Lock()
	defer r.mu.Unlock()
	pe := r.pend[k]
	if pe == nil {
		return // a later chunk of a streamed reply
	}
	delete(r.pend, k)
	name := pe.kind.String()
	r.spans = append(r.spans, span{ID: pe.id, Parent: pe.parent, Session: pe.sess,
		Name: "exchange." + name, Space: at, Start: pe.start, End: t})
	if pe.serveAt != 0 && pe.serveEnd != 0 {
		r.spans = append(r.spans, span{ID: pe.serveID, Parent: pe.id, Session: pe.sess,
			Name: "serve." + name, Space: m.From, Start: pe.serveAt, End: pe.serveEnd})
	}
}

// lowRate lists the trace events kept individually; per-item kinds
// (installs, validate hits) are only counted.
var lowRate = map[core.EventKind]bool{
	core.EvSessionBegin: true, core.EvSessionEnd: true,
	core.EvCallSent: true, core.EvCallServed: true, core.EvFault: true,
	core.EvFetchSent: true, core.EvFetchServed: true,
	core.EvDirtyCollected: true, core.EvWriteBackSent: true,
	core.EvInvalidateSent: true, core.EvValidateSent: true,
	core.EvChecksumReject: true, core.EvRetry: true,
}

// Trace implements core.Tracer.
func (r *recorder) Trace(e core.Event) {
	k := int(e.Kind) % len(r.evCount)
	r.evCount[k].Add(1)
	r.evSum[k].Add(int64(e.Count))
	if !lowRate[e.Kind] {
		return
	}
	s := stamped{At: r.p.now(), Kind: e.Kind.String(), Space: e.Space, Peer: e.Target, Count: e.Count}
	r.mu.Lock()
	r.events = append(r.events, s)
	r.mu.Unlock()
}

func (r *recorder) count(k core.EventKind) int64 { return r.evCount[int(k)%len(r.evCount)].Load() }

// snapshot returns the spans and send durations recorded so far.
func (r *recorder) snapshot() ([]span, []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), append([]float64(nil), r.sendNs...)
}

// dump writes the spans and events as JSON lines.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		_ = enc.Encode(struct {
			Type string `json:"type"`
			span
		}{"span", s})
	}
	for _, e := range r.events {
		_ = enc.Encode(struct {
			Type string `json:"type"`
			stamped
		}{"event", e})
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
