// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads against the library's public API with default
// Options, checks every session's output, and prints its metrics.
//
//	go run . --workload tree-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it runs half the time untraced and half traced, and
// prints the per-layer metrics of the traced half, the per-layer self
// times, and the tracing overhead (traced minus untraced). The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 1 when any session or oracle check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"smartrpc/internal/core"
)

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{"tree-cold", "tree-update", "index-lookup-tcp"}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "tree-cold":
		return newTreeCold(cfg)
	case "tree-update":
		return newTreeUpdate(cfg)
	case "index-lookup-tcp":
		return newIndexLookup(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind a percentile
	pct   bool    // a percentile: print n and whether it is resolved
	ok    bool    // enough samples beyond the percentile
}

// metrics keeps names in insertion order for printing.
type metrics struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: make(map[string]metric)} }

func (ms *metrics) set(name, unit string, v float64) {
	ms.put(name, metric{Value: v, Unit: unit})
}

// pct records the q-quantile of xs, scaled, with its sample count.
func (ms *metrics) pct(name, unit string, xs []float64, q, scale float64) {
	v, ok := quantile(xs, q)
	ms.put(name, metric{Value: v * scale, Unit: unit, n: len(xs), pct: true, ok: ok})
}

func (ms *metrics) put(name string, m metric) {
	if _, dup := ms.m[name]; !dup {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = m
}

func (ms *metrics) print() {
	for _, name := range ms.names {
		m := ms.m[name]
		line := fmt.Sprintf("  %-46s %14.6g %s", name, m.Value, m.Unit)
		if m.pct {
			line += fmt.Sprintf("  (n=%d", m.n)
			if !m.ok {
				line += ", fewer than 10 samples beyond"
			}
			line += ")"
		}
		fmt.Println(line)
	}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&cfg.spans, "spans", "", "file for the traced run's spans and events (JSON lines)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation and prints its human-readable
// report. An error means no result could be produced at all.
func run(cfg config) (result, error) {
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return result{}, err
	}
	// One P per client thread of control: the tree workloads have a
	// single thread of control, and a second P only adds cross-CPU
	// wake-ups whose cost depends on the host's scheduler.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(w.clients(), runtime.NumCPU())))
	b := newBench(cfg)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	err = w.prepare(b)
	defer w.close()
	if err != nil {
		return result{}, fmt.Errorf("prepare %s: %w", cfg.workload, err)
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var res result
	var plain, traced phaseResult
	if !cfg.trace {
		plain = b.phase(w, d, nil)
	} else {
		plain = b.phase(w, d/2, nil)
		b.firstUs, b.distinct = nil, 0
		traced = b.phase(w, d/2, newRecorder(b.probe, w.flows()))
	}
	ferr := w.finish(b)
	e2e := endToEnd(b, plain)
	res.Attempted, res.Failed = plain.attempted, plain.failed
	checks := []phaseResult{plain}
	if cfg.trace {
		fmt.Println("end-to-end (untraced half):")
		e2e.print()
		te := endToEnd(b, traced)
		fmt.Println("end-to-end (traced half):")
		te.print()
		layers := perLayer(b, traced, plain)
		fmt.Println("per-layer (traced half):")
		layers.print()
		printSelf(traced)
		res.Metrics = layers.m
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		checks = append(checks, traced)
		if cfg.spans != "" {
			if err := traced.rec.dump(cfg.spans); err != nil {
				return result{}, err
			}
			fmt.Printf("spans written to %s\n", cfg.spans)
		}
	} else {
		fmt.Println("end-to-end:")
		e2e.print()
		res.Metrics = e2e.m
	}
	res.Correct = res.Failed == 0 && ferr == nil
	if ferr != nil {
		b.fail("final oracle: %v", ferr)
	}
	for _, p := range checks {
		if p.stats.Retries != 0 || p.stats.StaleReplyDrops != 0 {
			res.Correct = false
			b.fail("recovery ran on a fault-free workload: %d retries, %d stale replies",
				p.stats.Retries, p.stats.StaleReplyDrops)
		}
	}
	if cfg.trace {
		if n := traced.rec.count(core.EvChecksumReject); n != 0 {
			res.Correct = false
			b.fail("%d frames failed their checksum", n)
		}
	}
	fmt.Printf("sessions attempted=%d failed=%d error_rate=%g\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, e := range b.errs {
		fmt.Println("failure:", e)
	}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no session was attempted")
	}
	return res, nil
}

// endToEnd derives the end-to-end metrics of one phase.
func endToEnd(b *bench, p phaseResult) *metrics {
	ms := newMetrics()
	s := float64(len(p.latMs))
	nf, nb, model := p.perSession()
	ms.pct("session_p50_ms", "ms", p.latMs, 0.5, 1)
	ms.pct("session_p90_ms", "ms", p.latMs, 0.9, 1)
	ms.set("sessions_per_s", "1/s", ratio(s, p.busy.Seconds()))
	ms.set("allocs_per_session", "count", ratio(float64(p.mallocs), s))
	ms.set("alloc_kb_per_session", "KiB", ratio(float64(p.allocB)/1024, s))
	ms.set("frames_per_session", "count", nf)
	ms.set("wire_bytes_per_session", "B", nb)
	ms.set("model_ms_per_session", "ms", model)
	ms.set("heap_mb", "MiB", float64(p.heapB)/(1<<20))
	ms.pct("setup_s", "s", b.setupS, 0.5, 1)
	return ms
}

// byName groups span durations by span name.
func byName(spans []span) map[string][]float64 {
	m := make(map[string][]float64)
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], float64(s.dur()))
	}
	return m
}

// selfTimes returns, per span name, the summed self time in ns: each
// span's duration minus the part of it its direct children cover.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.dur() - covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of spans.
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, z := max(s.Start, lo), min(s.End, hi)
		if a < z {
			iv = append(iv, [2]int64{a, z})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// spanNames lists every span the probe records, outermost first.
var spanNames = []string{
	"session", "session.begin", "session.call", "session.end", "handler", "access",
	"exchange.call", "exchange.fetch", "exchange.validate", "exchange.write-back", "exchange.invalidate",
	"serve.call", "serve.fetch", "serve.validate", "serve.write-back", "serve.invalidate",
}

// printSelf prints per-layer self time per session.
func printSelf(p phaseResult) {
	spans, _ := p.rec.snapshot()
	self := selfTimes(spans)
	s := float64(len(p.latMs))
	total := sum(byName(spans)["session"])
	fmt.Println("self time per session (span minus covered children):")
	for _, name := range spanNames {
		fmt.Printf("  %-22s %10.4f ms  %5.1f%% of session time\n",
			name, ratio(self[name]/1e6, s), 100*ratio(self[name], total))
	}
}
