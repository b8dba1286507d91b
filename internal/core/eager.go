package core

import (
	"slices"
	"sync"

	"smartrpc/internal/swizzle"
	"smartrpc/internal/types"
)

// Adaptive eagerness. The closure budget (§3.3) decides how much of a
// datum's pointer neighborhood rides along with each fetch; the paper
// fixes it per policy. This controller measures, per (origin space,
// datum type), how much of the shipped closure the session actually
// touched — vmem keeps an accessed bit per cache page that only the
// checked access paths set — and, when Options.AdaptiveEagerness is on,
// grows or shrinks each origin's budget between sessions: mostly-wasted
// closures halve it, mostly-used ones double it. The cumulative counters
// are always maintained; they are free at demotion time and feed the
// TESTING.md eagerness-tuning workflow even when adaptation is off.

const (
	// eagerAdaptMin is the minimum sample (hits+waste) before a session's
	// usage moves an origin's budget; below it the evidence is noise.
	eagerAdaptMin = 16
	// eagerShrinkRatio and eagerGrowRatio bound the dead band: waste
	// above the former halves the budget, below the latter doubles it.
	eagerShrinkRatio = 0.5
	eagerGrowRatio   = 0.125
	// minEagerBudget and maxEagerBudget clamp adaptation.
	minEagerBudget = 1024
	maxEagerBudget = 1 << 20
)

type eagerKey struct {
	Origin uint32
	Type   types.ID
}

// EagerUsage is the cumulative closure-usage record for one (origin,
// type) pair: Hits counts entries demoted from an accessed page, Waste
// entries demoted from a page the session never touched.
type EagerUsage struct {
	Origin uint32
	Type   types.ID
	Hits   uint64
	Waste  uint64
}

type eagerState struct {
	mu      sync.Mutex
	usage   map[eagerKey]*EagerUsage
	budgets map[uint32]int
}

// budgetFor returns the closure byte budget to use when fetching from
// origin: the adapted per-origin value when adaptation is enabled and
// has evidence, the configured closure budget otherwise.
func (rt *Runtime) budgetFor(origin uint32) int {
	if !rt.adaptiveEager {
		return rt.closure
	}
	rt.eager.mu.Lock()
	defer rt.eager.mu.Unlock()
	if b, ok := rt.eager.budgets[origin]; ok {
		return b
	}
	return rt.closure
}

// recordEagerUsage runs at demotion/invalidation time, while the table
// rows still say what was resident and vmem still says which pages the
// session touched. Page-granular: an entry counts as hit if the first
// page it occupies was accessed.
func (rt *Runtime) recordEagerUsage() {
	type sessionUse struct{ hits, waste uint64 }
	perOrigin := make(map[uint32]*sessionUse)
	rt.eager.mu.Lock()
	defer rt.eager.mu.Unlock()
	if rt.eager.usage == nil {
		rt.eager.usage = make(map[eagerKey]*EagerUsage)
	}
	// A cache usually holds a handful of (origin, type) pairs over
	// thousands of rows, so the counters of the last pair seen are kept
	// at hand instead of two map lookups per row.
	var (
		last eagerKey
		u    *EagerUsage
		s    *sessionUse
	)
	rt.table.Each(func(e swizzle.Entry) {
		if !e.Resident {
			return
		}
		if k := (eagerKey{Origin: e.LP.Space, Type: e.LP.Type}); u == nil || k != last {
			last = k
			if u = rt.eager.usage[k]; u == nil {
				u = &EagerUsage{Origin: k.Origin, Type: k.Type}
				rt.eager.usage[k] = u
			}
			if s = perOrigin[k.Origin]; s == nil {
				s = &sessionUse{}
				perOrigin[k.Origin] = s
			}
		}
		if rt.space.Accessed(rt.space.PageOf(e.Addr)) {
			u.Hits++
			s.hits++
		} else {
			u.Waste++
			s.waste++
		}
	})
	if !rt.adaptiveEager {
		return
	}
	if rt.eager.budgets == nil {
		rt.eager.budgets = make(map[uint32]int)
	}
	for origin, s := range perOrigin {
		total := s.hits + s.waste
		if total < eagerAdaptMin {
			continue
		}
		b, ok := rt.eager.budgets[origin]
		if !ok {
			b = rt.closure
		}
		switch ratio := float64(s.waste) / float64(total); {
		case ratio > eagerShrinkRatio:
			b /= 2
		case ratio < eagerGrowRatio:
			b *= 2
		}
		rt.eager.budgets[origin] = min(max(b, minEagerBudget), maxEagerBudget)
	}
}

// prefetchDepthFor scales the configured speculative prefetch depth for
// one origin by the same closure-usage evidence the adaptive budget uses:
// the cumulative per-(origin, type) hit/waste counters recorded at
// demotion time. An origin whose shipped data is mostly wasted gets its
// speculation shut off entirely (waste above eagerShrinkRatio → depth 0);
// one whose data is almost always used prefetches twice as deep (waste
// below eagerGrowRatio). With less than eagerAdaptMin of evidence the
// configured depth stands.
func (rt *Runtime) prefetchDepthFor(origin uint32, depth int) int {
	rt.eager.mu.Lock()
	defer rt.eager.mu.Unlock()
	var hits, waste uint64
	for k, u := range rt.eager.usage {
		if k.Origin == origin {
			hits += u.Hits
			waste += u.Waste
		}
	}
	total := hits + waste
	if total < eagerAdaptMin {
		return depth
	}
	switch ratio := float64(waste) / float64(total); {
	case ratio > eagerShrinkRatio:
		return 0
	case ratio < eagerGrowRatio:
		return depth * 2
	default:
		return depth
	}
}

// EagerUsageStats returns the cumulative per-(origin, type) closure
// usage counters, sorted by origin then type.
func (rt *Runtime) EagerUsageStats() []EagerUsage {
	rt.eager.mu.Lock()
	defer rt.eager.mu.Unlock()
	out := make([]EagerUsage, 0, len(rt.eager.usage))
	for _, u := range rt.eager.usage {
		out = append(out, *u)
	}
	slices.SortFunc(out, func(a, b EagerUsage) int {
		if a.Origin != b.Origin {
			return int(a.Origin) - int(b.Origin)
		}
		return int(a.Type) - int(b.Type)
	})
	return out
}
