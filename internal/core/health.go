package core

import (
	"fmt"
	"sync"
	"time"

	"smartrpc/internal/wire"
)

// Per-origin health: incarnation fencing and a consecutive-failure
// circuit breaker.
//
// Fencing (§ PROTOCOL.md "Restart incarnations"): an origin configured
// with a nonzero Options.Incarnation stamps it into every reply it
// serves. The first stamped value a client observes for a peer is
// recorded as that relationship's epoch; any later reply carrying a
// different value proves the origin crashed and restarted with a fresh
// heap, so every address this space still holds from it — cached pages,
// warm baselines, swizzled pointers — is resurrected garbage. The fence
// fails the exchange with ErrOriginRestarted (never retried: the data
// is gone, not delayed) after demoting the origin's warm state, so the
// failure mode is a typed error, not a silent read of reused addresses.
//
// The breaker: consecutive demand-exchange failures against one origin
// open a per-origin circuit that sheds speculative (prefetch) traffic —
// speculation is never load-bearing, so refusing to launch it against a
// struggling peer is free — while demand traffic keeps its full retry
// budget. Every breakerProbeEvery'th shed lets one half-open probe
// through; the first demand success closes the circuit.

// breakerThreshold is how many consecutive demand failures against one
// origin open its circuit; breakerProbeEvery is how many speculative
// sheds admit one half-open probe.
const (
	breakerThreshold  = 3
	breakerProbeEvery = 8
)

// peerHealth is one origin's fence + breaker state.
type peerHealth struct {
	incSeen bool
	inc     uint32
	fails   int
	open    bool
	sheds   int
}

// healthState tracks per-origin health. One mutex covers the whole map:
// every touch is a few loads and stores, and the exchange paths it sits
// on each involve at least one network round trip.
type healthState struct {
	mu    sync.Mutex
	peers map[uint32]*peerHealth
}

// peer returns (creating if needed) the state for one origin. Caller
// holds h.mu.
func (h *healthState) peer(id uint32) *peerHealth {
	if h.peers == nil {
		h.peers = make(map[uint32]*peerHealth)
	}
	p := h.peers[id]
	if p == nil {
		p = &peerHealth{}
		h.peers[id] = p
	}
	return p
}

// fenceCheck validates the incarnation a reply from peer carried. The
// first observation records the epoch; a change trips the fence:
// record the new epoch (so the relationship can resume if the caller
// chooses to re-import), demote every warm view held for the origin,
// and return an ErrOriginRestarted-wrapped error.
func (rt *Runtime) fenceCheck(peer uint32, inc uint32) error {
	h := &rt.health
	h.mu.Lock()
	p := h.peer(peer)
	if !p.incSeen {
		p.incSeen = true
		p.inc = inc
		h.mu.Unlock()
		return nil
	}
	if p.inc == inc {
		h.mu.Unlock()
		return nil
	}
	old := p.inc
	p.inc = inc
	h.mu.Unlock()
	rt.stats.fenceTrips.Add(1)
	rt.trace(Event{Kind: EvFenceTrip, Target: peer, Page: old, Count: int(inc)})
	rt.fenceDemote(peer)
	return fmt.Errorf("core: space %d restarted (incarnation %d -> %d): %w",
		peer, old, inc, ErrOriginRestarted)
}

// fenceDemote strips the warm state of a restarted origin's stale data
// — stale marks and recorded hashes: its heap is fresh, so no offered
// hash can match and no delta base is valid. The cached pages themselves
// are torn down by the session abort the fence error forces.
func (rt *Runtime) fenceDemote(origin uint32) {
	var lps []wire.LongPtr
	for _, e := range rt.table.Entries() {
		if e.Stale && e.LP.Space == origin {
			lps = append(lps, e.LP)
		}
	}
	rt.degradeLPs(lps)
}

// noteSuccess records a completed demand exchange with peer, closing
// its breaker if open.
func (h *healthState) noteSuccess(rt *Runtime, peer uint32) {
	h.mu.Lock()
	p := h.peer(peer)
	wasOpen := p.open
	p.fails, p.open, p.sheds = 0, false, 0
	h.mu.Unlock()
	if wasOpen {
		rt.trace(Event{Kind: EvBreakerClose, Target: peer})
	}
}

// noteFailure records a failed demand exchange attempt with peer,
// opening its breaker at the consecutive-failure threshold.
func (h *healthState) noteFailure(rt *Runtime, peer uint32) {
	h.mu.Lock()
	p := h.peer(peer)
	p.fails++
	opened := !p.open && p.fails >= breakerThreshold
	if opened {
		p.open = true
		p.sheds = 0
	}
	h.mu.Unlock()
	if opened {
		rt.stats.breakerOpens.Add(1)
		rt.trace(Event{Kind: EvBreakerOpen, Target: peer})
	}
}

// allowSpec reports whether a speculative launch against peer may
// proceed. An open breaker sheds it, except that every
// breakerProbeEvery'th shed is admitted as a half-open probe so the
// breaker discovers recovery even on an all-speculative edge.
func (h *healthState) allowSpec(rt *Runtime, peer uint32) bool {
	h.mu.Lock()
	p := h.peer(peer)
	if !p.open {
		h.mu.Unlock()
		return true
	}
	p.sheds++
	probe := p.sheds%breakerProbeEvery == 0
	h.mu.Unlock()
	if probe {
		rt.trace(Event{Kind: EvBreakerProbe, Target: peer})
		return true
	}
	rt.stats.breakerSheds.Add(1)
	return false
}

// Retry backoff: capped exponential with deterministic jitter. The
// jitter derives from (space id, exchange id, attempt) through a
// splitmix64 mix — a pure function, so a seeded chaos run replays the
// same pacing every time, yet distinct exchanges desynchronize instead
// of retrying in lockstep.
const (
	retryBaseDelay = 2 * time.Millisecond
	retryMaxDelay  = 50 * time.Millisecond
)

func retryBackoff(id uint32, xid uint64, attempt int) time.Duration {
	base := retryBaseDelay << uint(attempt)
	if base > retryMaxDelay || base <= 0 {
		base = retryMaxDelay
	}
	j := mix64(uint64(id)<<56 ^ xid<<8 ^ uint64(attempt))
	return base/2 + time.Duration(j%uint64(base/2+1))
}

// mix64 is the splitmix64 finalizer (Steele et al.), the same mixer the
// fault simulator uses for its deterministic per-frame draws.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
