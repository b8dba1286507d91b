package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"smartrpc/internal/wire"
)

// The exchange primitive. Every request this runtime issues — CALL,
// FETCH, VALIDATE, WRITEBACK, INVALIDATE, ALLOCBATCH, and the lazy
// policy's per-dereference fetch and write-through — runs as one
// exchange: rt.do allocates the exchange id and drives the attempts
// under the retry policy, and exchange.next hands the caller each reply
// frame of the current attempt, past the per-frame deadline and the one
// reply classifier. The origin picks the reply form for FETCH and
// VALIDATE — a classic single frame or a KindFetchChunk stream — and
// next decodes a classic reply as a one-chunk final stream, so every
// caller has a single receive loop whichever form arrives.

// waiterMax bounds the number of undrained frames a waiter queues. A
// well-behaved origin never gets near it (the requester drains chunks as
// fast as they decode); hitting the cap means the peer is violating the
// protocol, and the excess frames are dropped, which tears the chunk
// sequence and fails the attempt rather than letting the queue grow
// without bound.
const waiterMax = 4096

// waiter is the receive queue of one exchange attempt. The dispatcher
// pushes frames without ever blocking; the requester pops them in
// arrival order. Pushes happen under the pending-table shard lock, the
// same lock that registers and drops the attempt, so once an attempt is
// dropped no frame can reach its waiter — which is what lets the waiter
// (embedded in a pooled exchange) be recycled after every outcome,
// timeouts included.
type waiter struct {
	mu   sync.Mutex
	q    []wire.Message
	head int
	wake chan struct{}
}

// push appends a frame and wakes the requester. The caller holds the
// shard lock of the frame's seq.
func (w *waiter) push(m wire.Message) {
	w.mu.Lock()
	if len(w.q)-w.head >= waiterMax {
		w.mu.Unlock()
		m.ReleaseFrame()
		return
	}
	w.q = append(w.q, m)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// pop removes the oldest queued frame.
func (w *waiter) pop() (wire.Message, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head == len(w.q) {
		return wire.Message{}, false
	}
	m := w.q[w.head]
	w.q[w.head] = wire.Message{}
	if w.head++; w.head == len(w.q) {
		w.q, w.head = w.q[:0], 0
	}
	return m, true
}

// flush releases every queued frame and empties the queue. The attempt
// must already be dropped from the pending table.
func (w *waiter) flush() {
	w.mu.Lock()
	for i := w.head; i < len(w.q); i++ {
		w.q[i].ReleaseFrame()
	}
	clear(w.q)
	w.q, w.head = w.q[:0], 0
	w.mu.Unlock()
	select {
	case <-w.wake:
	default:
	}
}

// pendingShardCount is the number of lock stripes in the pending table.
// Power of two so the shard pick is a mask. Sixteen stripes keep the
// table's footprint trivial while pushing mutex collisions below
// measurement noise even when the prefetcher, the fan-out fetch path, and
// concurrent application goroutines all have replies outstanding at once
// (see BenchmarkPendingTable in pipeline_test.go for the measured win
// over a single-mutex map).
const pendingShardCount = 16

// pendingShard is one stripe: the waiters of the in-flight attempts whose
// sequence numbers hash to it.
type pendingShard struct {
	mu sync.Mutex
	m  map[uint64]*waiter
}

// pendingTable maps in-flight attempt sequence numbers to their waiters,
// lock-striped by sequence number. Sequence numbers come from a single
// atomic counter, so consecutive requests land on consecutive shards —
// concurrent senders almost never contend.
type pendingTable struct {
	shards [pendingShardCount]pendingShard
}

func newPendingTable() *pendingTable {
	t := &pendingTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]*waiter)
	}
	return t
}

func (t *pendingTable) shard(seq uint64) *pendingShard {
	return &t.shards[seq&(pendingShardCount-1)]
}

// put registers w as the waiter for seq.
func (t *pendingTable) put(seq uint64, w *waiter) {
	s := t.shard(seq)
	s.mu.Lock()
	s.m[seq] = w
	s.mu.Unlock()
}

// drop unregisters seq (idempotent).
func (t *pendingTable) drop(seq uint64) {
	s := t.shard(seq)
	s.mu.Lock()
	delete(s.m, seq)
	s.mu.Unlock()
}

// deliver routes a reply frame to the waiter registered for its seq,
// reporting false when there is none (a stale reply: its attempt was
// abandoned). A frame that ends the reply — a classic reply, an error,
// or a final or unparseable chunk — also unregisters the attempt; a
// non-final chunk leaves it registered for the rest of the stream.
func (t *pendingTable) deliver(m wire.Message) bool {
	s := t.shard(m.Seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.m[m.Seq]
	if !ok {
		return false
	}
	if m.Kind != wire.KindFetchChunk || m.Err != "" || wire.ChunkIsFinal(m.Payload) {
		delete(s.m, m.Seq)
	}
	w.push(m)
	return true
}

// exchange is one logical request/reply exchange: the request, the
// current attempt's sequence number and chunk position, and its waiter.
// Exchanges are pooled, so a steady-state exchange allocates nothing.
type exchange struct {
	waiter
	rt   *Runtime
	req  wire.Message // each attempt re-seals a copy under its own Seq
	seq  uint64
	sent bool
	asm  chunkAssembler
	// detached hands the exchange to a background drain (the tail of a
	// streamed fetch), which releases it when the stream ends.
	detached bool
}

var exchangePool = sync.Pool{New: func() any {
	return &exchange{waiter: waiter{wake: make(chan struct{}, 1)}}
}}

// do runs one logical exchange for req. One exchange id is allocated for
// the whole exchange; each attempt travels under a distinct Seq (xid plus
// attempt ordinal in the top bits), so a late reply to an abandoned
// attempt misses the pending table instead of masquerading as the
// current attempt's reply, and the origin's reply cache recognizes a
// retry by its xid.
//
// recv performs one attempt: the request goes out on its first x.next,
// and it consumes the reply frames it needs. A transient failure
// (deadline, send error, frame corrupted in flight, torn chunk stream) is
// re-issued with capped exponential backoff and deterministic jitter
// while Options.RetryBudget allows; anything else is returned as is. With
// the budget unset (the default) this is a single attempt with health
// accounting — nothing more on the wire than the seed protocol.
func (rt *Runtime) do(req wire.Message, recv func(x *exchange) error) error {
	x := exchangePool.Get().(*exchange)
	x.rt, x.req = rt, req
	defer func() {
		if !x.detached {
			x.release()
		}
	}()
	xid := rt.seq.Add(1) & wire.SeqXIDMask
	var deadline time.Time
	if rt.retryBudget > 0 {
		deadline = time.Now().Add(rt.retryBudget)
	}
	for a := 0; ; a++ {
		x.seq, x.sent = wire.SeqWithAttempt(xid, uint8(a)), false
		x.asm = chunkAssembler{xid: x.seq}
		err := recv(x)
		if err == nil {
			rt.health.noteSuccess(rt, req.To)
			if a > 0 {
				rt.stats.retrySuccesses.Add(1)
			}
			return nil
		}
		x.abandon()
		if !isTransient(err) {
			return err
		}
		rt.health.noteFailure(rt, req.To)
		if rt.retryBudget <= 0 || a >= rt.maxRetries {
			if rt.retryBudget > 0 {
				rt.stats.retriesExhausted.Add(1)
			}
			return err
		}
		delay := retryBackoff(rt.id, xid, a)
		if !time.Now().Add(delay).Before(deadline) {
			rt.stats.retriesExhausted.Add(1)
			return err
		}
		select {
		case <-time.After(delay):
		case <-rt.stop:
			return ErrClosed
		}
		rt.stats.retries.Add(1)
		rt.trace(Event{Kind: EvRetry, Target: req.To, Proc: req.Kind.String(), Count: a + 1})
	}
}

// roundTrip runs an exchange whose reply is one frame (CALL, WRITEBACK,
// INVALIDATE, ALLOCBATCH) and returns it. On an application error the
// reply comes back alongside the error: a CALL's error Return may still
// carry the callee's modified data set.
func (rt *Runtime) roundTrip(req wire.Message) (reply wire.Message, err error) {
	err = rt.do(req, func(x *exchange) error {
		var err error
		reply, _, err = x.next()
		return err
	})
	return reply, err
}

// next returns the current attempt's next reply frame, sending the
// request first on the attempt's first call. For FETCH and VALIDATE the
// frame's content comes back decoded as a chunk (a classic reply is a
// one-chunk final stream); every other kind leaves the reply payload in
// the message for the caller to decode. The caller owns the returned
// frame and releases it once done with the chunk's items.
func (x *exchange) next() (wire.Message, wire.FetchChunkPayload, error) {
	if !x.sent {
		if err := x.send(); err != nil {
			return wire.Message{}, wire.FetchChunkPayload{}, err
		}
	}
	m, err := x.wait()
	if err != nil {
		return m, wire.FetchChunkPayload{}, err
	}
	c, err := x.classify(&m)
	if err != nil {
		m.ReleaseFrame()
	}
	return m, c, err
}

// send registers the attempt and puts its request on the wire.
func (x *exchange) send() error {
	x.sent = true
	m := x.req
	m.Seq = x.seq
	m.Seal()
	x.rt.pending.put(x.seq, &x.waiter)
	if err := x.rt.node.Send(m); err != nil {
		return transient(fmt.Errorf("send %v to space %d: %w", m.Kind, m.To, err))
	}
	return nil
}

// wait blocks for the attempt's next frame, or until the runtime closes
// or CallTimeout passes. Each frame gets a fresh timeout window: a
// streamed reply makes progress chunk by chunk, so per-frame patience
// bounds a stalled exchange without penalizing long streams.
func (x *exchange) wait() (wire.Message, error) {
	if m, ok := x.pop(); ok {
		return m, nil
	}
	rt := x.rt
	var deadline <-chan time.Time
	if rt.callTimeout > 0 {
		timer := time.NewTimer(rt.callTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	for {
		select {
		case <-x.wake:
			if m, ok := x.pop(); ok {
				return m, nil
			}
		case <-deadline:
			return wire.Message{}, transient(fmt.Errorf("%v to space %d after %v: %w",
				x.req.Kind, x.req.To, rt.callTimeout, ErrDeadline))
		case <-rt.stop:
			return wire.Message{}, ErrClosed
		}
	}
}

// classify is the one reply classifier. It checks, in order:
//
//  1. checksum reject — the frame, or the request it answers, was
//     corrupted in flight: transient. It comes first because a corrupted
//     frame's incarnation word is garbage;
//  2. the incarnation fence — every other frame's Inc is trustworthy, and
//     a restarted origin answers a stale session's requests with errors,
//     so the restart is the diagnosis, not the symptom: terminal;
//  3. an application error: terminal;
//  4. the frame's kind and its place in the chunk stream: a wrong kind is
//     a protocol error (terminal), while a dropped, duplicated or
//     reordered chunk tears the stream (transient — a retry streams it
//     afresh).
func (x *exchange) classify(m *wire.Message) (c wire.FetchChunkPayload, err error) {
	if m.Code == wire.CodeChecksumReject {
		return c, transient(errors.New(m.Err))
	}
	if err := x.rt.fenceCheck(x.req.To, m.Inc); err != nil {
		return c, err
	}
	if m.Err != "" {
		return c, &remoteError{msg: m.Err, code: m.Code}
	}
	validate := x.req.Kind == wire.KindValidate
	streams := validate || x.req.Kind == wire.KindFetch
	switch {
	case m.Kind == x.req.Kind.ReplyKind() && !streams:
		return c, nil
	case m.Kind == x.req.Kind.ReplyKind():
		if x.asm.next != 0 {
			return c, fmt.Errorf("core: classic %v after chunk %d", m.Kind, x.asm.next-1)
		}
		x.asm.next, x.asm.done = 1, true
		c = wire.FetchChunkPayload{XID: x.seq, Final: true, Validate: validate}
		if validate {
			var p wire.ValidateReplyPayload
			p, err = wire.DecodeValidateReplyPayload(m.Payload)
			c.VItems = p.Items
		} else {
			var p wire.ItemsPayload
			p, err = wire.DecodeItemsPayload(m.Payload)
			c.Items = p.Items
		}
		if err != nil {
			return c, fmt.Errorf("decode %v: %w", m.Kind, err)
		}
		return c, nil
	case m.Kind == wire.KindFetchChunk && streams:
		if c, err = wire.DecodeFetchChunkPayload(m.Payload); err != nil {
			return c, fmt.Errorf("chunk decode: %w", err)
		}
		if c.Validate != validate {
			return c, fmt.Errorf("core: chunk (validate=%v) in a %v exchange", c.Validate, x.req.Kind)
		}
		if err := x.asm.accept(&c); err != nil {
			return c, transient(err)
		}
		return c, nil
	}
	return c, fmt.Errorf("core: unexpected %v reply to %v", m.Kind, x.req.Kind)
}

// abandon ends the current attempt: it unregisters the attempt's seq, so
// the dispatcher counts any later frame for it as a stale drop, and
// releases whatever is still queued. Idempotent.
func (x *exchange) abandon() {
	x.rt.pending.drop(x.seq)
	x.flush()
}

// release abandons the current attempt and returns the exchange to the
// pool.
func (x *exchange) release() {
	x.abandon()
	x.rt, x.req, x.detached = nil, wire.Message{}, false
	exchangePool.Put(x)
}

// chunkAssembler validates the chunk sequence of one streamed reply:
// ordinals must be contiguous from zero, every chunk must echo the
// exchange id, and nothing may follow the final chunk. Any violation —
// a dropped, duplicated, or reordered chunk — tears the stream; the
// attempt is abandoned and refetched rather than installing a torn
// closure.
type chunkAssembler struct {
	xid  uint64
	next uint32
	done bool
}

// accept validates one decoded chunk against the stream position.
func (a *chunkAssembler) accept(p *wire.FetchChunkPayload) error {
	if a.done {
		return fmt.Errorf("core: chunk %d after final chunk", p.Chunk)
	}
	if p.XID != a.xid {
		return fmt.Errorf("core: chunk xid %d does not match exchange %d", p.XID, a.xid)
	}
	if p.Chunk != a.next {
		return fmt.Errorf("core: chunk ordinal %d, expected %d (dropped or reordered chunk)", p.Chunk, a.next)
	}
	a.next++
	if p.Final {
		a.done = true
	}
	return nil
}

// transientError marks an attempt failure a fresh attempt can outrun.
type transientError struct{ error }

func (e transientError) Unwrap() error { return e.error }

func transient(err error) error { return transientError{err} }

func isTransient(err error) bool {
	var t transientError
	return errors.As(err, &t)
}

// checksumRejectErr is the text of a CodeChecksumReject reply: the
// dispatcher substitutes it for a corrupted reply's untrustworthy
// content, and answers a corrupted request with it.
const checksumRejectErr = "wire: frame checksum mismatch (corrupted in flight)"

// remoteError is an error a peer reported in a reply. Its code, never its
// text, decides what it means: a fence trip anywhere down the call chain
// stays errors.Is-comparable to ErrOriginRestarted at every hop, and no
// application error is mistaken for a runtime condition.
type remoteError struct {
	msg  string
	code wire.ErrCode
}

func (e *remoteError) Error() string { return "remote: " + e.msg }

func (e *remoteError) Is(target error) bool {
	return target == ErrOriginRestarted && e.code == wire.CodeOriginRestarted
}

// errCode types an error for the reply that carries it across the hop.
func errCode(err error) wire.ErrCode {
	if errors.Is(err, ErrOriginRestarted) {
		return wire.CodeOriginRestarted
	}
	return wire.CodeNone
}
