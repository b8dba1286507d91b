package main

import (
	"math"
	"reflect"
	"sort"

	"smartrpc/internal/core"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported as resolved: a p90 needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie beyond it. xs is not modified.
// An empty sample yields (0, false).
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], n-(rank+1) >= minBeyond
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statsDelta returns after-before for every counter of core.Stats.
// EncCacheBytes is a gauge, so the delta keeps after's value.
func statsDelta(after, before core.Stats) core.Stats {
	out := after
	a := reflect.ValueOf(&out).Elem()
	b := reflect.ValueOf(before)
	for i := 0; i < a.NumField(); i++ {
		if a.Type().Field(i).Name == "EncCacheBytes" {
			continue
		}
		if f := a.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() - b.Field(i).Uint())
		}
	}
	return out
}

// statsAdd returns a+b for every field of core.Stats (gauges add too, so
// summing spaces gives the total resident encode cache).
func statsAdd(a, b core.Stats) core.Stats {
	out := a
	o := reflect.ValueOf(&out).Elem()
	bv := reflect.ValueOf(b)
	for i := 0; i < o.NumField(); i++ {
		if f := o.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + bv.Field(i).Uint())
		}
	}
	return out
}
