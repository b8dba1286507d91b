package main

import (
	"smartrpc/internal/core"
	"smartrpc/internal/wire"
)

// wireKinds are the frame kinds reported per kind, named as the wire
// package names them.
var wireKinds = []wire.Kind{
	wire.KindCall, wire.KindReturn, wire.KindFetch, wire.KindFetchReply,
	wire.KindWriteBack, wire.KindWriteBackAck, wire.KindInvalidate, wire.KindInvalidateAck,
	wire.KindValidate, wire.KindValidateReply, wire.KindFetchChunk,
}

// perLayer derives the per-layer metrics of the traced phase t; plain is
// the untraced phase of the same run, for the tracing overhead.
func perLayer(b *bench, t, plain phaseResult) *metrics {
	ms := newMetrics()
	spans, sendNs := t.rec.snapshot()
	dur := byName(spans)
	self := selfTimes(spans)
	st := t.stats
	s := float64(len(t.latMs))
	perS := func(x float64) float64 { return ratio(x, s) }
	ms2 := func(name string) float64 { return perS(sum(dur[name]) / 1e6) }
	const us = 1e-3 // ns → µs

	// core.session: the public session calls and the procedure bodies.
	callMs, handlerMs := ms2("session.call"), ms2("handler")
	ms.set("core.session.call_ms", "ms", callMs)
	ms.set("core.session.handler_ms", "ms", handlerMs)
	ms.set("core.session.call_overhead_ms", "ms", callMs-handlerMs)
	ms.set("core.session.end_ms", "ms", ms2("session.end"))
	ms.pct("core.session.first_access_us", "us", b.firstUs, 0.5, 1)
	ms.pct("core.session.deref_stall_us_p50", "us", dur["access"], 0.5, us)
	ms.pct("core.session.deref_stall_us_p90", "us", dur["access"], 0.9, us)
	body := sum(dur["handler"])
	if body == 0 {
		body = sum(dur["session"])
	}
	ms.set("core.session.stall_share", "ratio", ratio(sum(dur["access"]), body))

	// core.fetch: demand fetch exchanges, timed by the node wrapper.
	fetches := float64(len(dur["exchange.fetch"]))
	ms.set("core.fetch.exchanges_per_session", "count", perS(fetches))
	ms.pct("core.fetch.rtt_us_p50", "us", dur["exchange.fetch"], 0.5, us)
	ms.pct("core.fetch.rtt_us_p90", "us", dur["exchange.fetch"], 0.9, us)
	ms.set("core.fetch.items_per_exchange", "count", ratio(float64(st.ItemsInstalled), fetches))
	ms.set("core.fetch.reply_kb_per_exchange", "KiB", ratio(float64(t.frames.bytes[wire.KindFetchReply])/1024, fetches))
	ms.set("core.fetch.coalesced_per_session", "count", perS(float64(st.PfCoalesced)))

	// core.serve: request Recv to reply Send on the serving space.
	ms.pct("core.serve.fetch_us_p50", "us", dur["serve.fetch"], 0.5, us)
	ms.pct("core.serve.fetch_us_p90", "us", dur["serve.fetch"], 0.9, us)
	ms.pct("core.serve.validate_us_p50", "us", dur["serve.validate"], 0.5, us)
	ms.pct("core.serve.writeback_us_p50", "us", dur["serve.write-back"], 0.5, us)
	ms.pct("core.serve.invalidate_us_p50", "us", dur["serve.invalidate"], 0.5, us)
	var serves []span
	for _, sp := range spans {
		if len(sp.Name) > 6 && sp.Name[:6] == "serve." && sp.Name != "serve.call" {
			serves = append(serves, sp)
		}
	}
	if len(spans) > 0 {
		lo, hi := spans[0].Start, spans[0].End
		for _, sp := range spans {
			lo, hi = min(lo, sp.Start), max(hi, sp.End)
		}
		ms.set("core.serve.busy_share", "ratio", ratio(float64(covered(lo, hi, serves)), t.wall.Seconds()*1e9))
	} else {
		ms.set("core.serve.busy_share", "ratio", 0)
	}

	// core.enccache: the origin's encode cache.
	lookups := float64(st.EncCacheHits + st.EncCacheMisses)
	ms.set("core.enccache.hit_ratio", "ratio", ratio(float64(st.EncCacheHits), lookups))
	ms.set("core.enccache.misses_per_session", "count", perS(float64(st.EncCacheMisses)))
	ms.set("core.enccache.invalidations_per_session", "count", perS(float64(st.EncCacheInvalidations)))
	ms.set("core.enccache.evictions_per_session", "count", perS(float64(st.EncCacheEvictions)))
	ms.set("core.enccache.kb", "KiB", float64(t.foot.encBytes)/1024)

	// core.warmcache: revalidation of stale cached copies.
	reval := float64(st.CohRevalidateHits + st.CohRevalidateMisses)
	ms.set("core.warmcache.validate_exchanges_per_session", "count", perS(float64(len(dur["exchange.validate"]))))
	ms.pct("core.warmcache.validate_rtt_us_p50", "us", dur["exchange.validate"], 0.5, us)
	ms.set("core.warmcache.entries_per_session", "count", perS(reval))
	ms.set("core.warmcache.hit_ratio", "ratio", ratio(float64(st.CohRevalidateHits), reval))
	ms.set("core.warmcache.entries_per_deref", "ratio", ratio(reval, float64(b.distinct)))
	ms.set("core.warmcache.reval_kb_per_session", "KiB", perS(float64(st.CohRevalidateBytes)/1024))

	// core.coh: the crossing path.
	ms.set("core.coh.dirty_items_per_session", "count", perS(float64(t.rec.evSum[core.EvDirtyCollected].Load())))
	ms.set("core.coh.items_shipped_per_session", "count", perS(float64(st.CohItemsShipped)))
	ms.set("core.coh.delta_share", "ratio", ratio(float64(st.CohDeltaItems), float64(st.CohItemsShipped)))
	ms.set("core.coh.skipped_per_session", "count", perS(float64(st.CohItemsSkipped)))
	ms.set("core.coh.item_kb_per_session", "KiB", perS(float64(st.CohItemBytes)/1024))
	ms.pct("core.coh.writeback_rtt_us_p50", "us", dur["exchange.write-back"], 0.5, us)
	ms.pct("core.coh.invalidate_rtt_us_p50", "us", dur["exchange.invalidate"], 0.5, us)

	// wire and transport: frames handed to Node.Send.
	for _, k := range wireKinds {
		ms.set("wire.frames."+k.String()+"_per_session", "count", perS(float64(t.frames.frames[k])))
		ms.set("wire.kb."+k.String()+"_per_session", "KiB", perS(float64(t.frames.bytes[k])/1024))
	}
	ms.set("wire.checksum_rejects", "count", float64(t.rec.count(core.EvChecksumReject)))
	ms.pct("transport.send_us_p50", "us", sendNs, 0.5, us)
	ms.pct("transport.send_us_p90", "us", sendNs, 0.9, us)

	// vmem and swizzle: faults, the origin heap, the cached working set.
	ms.set("vmem.faults_per_session", "count", perS(float64(st.Faults)))
	ms.set("vmem.origin_heap_kb", "KiB", float64(t.foot.originHeap)/1024)
	ms.set("swizzle.entries", "count", float64(t.foot.cache.Entries))
	ms.set("swizzle.resident_kb", "KiB", float64(t.foot.cache.ResidentBytes)/1024)

	ms.set("core.recovery.retries", "count", float64(st.Retries))
	ms.set("core.recovery.stale_reply_drops", "count", float64(st.StaleReplyDrops))
	ms.set("go.gc_cycles_per_session", "count", perS(float64(t.gcCycles)))
	ms.set("go.gc_pause_ms_per_session", "ms", perS(float64(t.gcPause)/1e6))

	for _, name := range spanNames {
		ms.set("self."+name+"_ms_per_session", "ms", perS(self[name]/1e6))
	}

	tp50, _ := quantile(t.latMs, 0.5)
	pp50, _ := quantile(plain.latMs, 0.5)
	ms.set("trace.overhead_p50_ms", "ms", tp50-pp50)
	ms.set("trace.overhead_share", "ratio", ratio(tp50, pp50)-1)
	return ms
}
