package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"smartrpc/internal/netsim"
)

// Report is the machine-readable output of the benchmark-regression
// harness (`srpcbench -json > BENCH_<n>.json`). Committed snapshots let a
// later change be checked against an earlier one with nothing but two
// files: Check requires the deterministic columns (modeled time, traffic
// and the protocol counters) to match exactly. Wall time and allocations
// are recorded for people reading the snapshots; nothing compares them.
type Report struct {
	// Schema versions the report format. It is informational: Check
	// compares every snapshot the same way.
	Schema int `json:"schema"`
	// Model names the network cost model the modeled times assume.
	Model string `json:"model"`
	// Nodes and Closure are the tree size and closure budget the rows
	// were produced with (individual rows may override Closure).
	Nodes   int `json:"nodes"`
	Closure int `json:"closure_bytes"`
	// Runs is how many measured repetitions each row averages over.
	Runs int         `json:"runs"`
	Rows []ReportRow `json:"rows"`
}

// ReportRow is one benchmark point. A family leaves the columns it does
// not produce at zero.
type ReportRow struct {
	// Figure tags the experiment family (a families entry).
	Figure string `json:"figure"`
	// Config identifies the point within the family.
	Policy  string  `json:"policy"`
	Ratio   float64 `json:"ratio"`
	Closure int     `json:"closure_bytes"`
	// Session numbers the rows of a repeated-session family (1 = cold
	// start); zero for single-session families.
	Session int `json:"session,omitempty"`

	// Deterministic outputs (must be identical between snapshots).
	ModelSec  float64 `json:"model_sec"`
	Callbacks uint64  `json:"callbacks"`
	Messages  uint64  `json:"messages"`
	NetBytes  uint64  `json:"net_bytes"`
	Faults    uint64  `json:"faults"`
	// Crossings counts boundary crossings of the thread of control
	// (call + return messages); MsgsPerCrossing divides total messages
	// by it. CohItemBytes and the item counters attribute bytes on the
	// wire to the coherency path.
	Crossings       uint64  `json:"crossings"`
	MsgsPerCrossing float64 `json:"msgs_per_crossing"`
	CohItemBytes    uint64  `json:"coh_item_bytes"`
	CohItemsShipped uint64  `json:"coh_items_shipped"`
	CohDeltaItems   uint64  `json:"coh_delta_items"`
	CohItemsSkipped uint64  `json:"coh_items_skipped"`
	// ItemBodyBytes is the combined per-session coherency/data item-body
	// wire bytes (fetch bodies + coherency items + revalidation bodies,
	// tokens = 0) and the CohRevalidate columns are the warm-cache
	// revalidation outcomes (warm-sessions rows).
	ItemBodyBytes       uint64 `json:"item_body_bytes,omitempty"`
	CohRevalidateHits   uint64 `json:"coh_revalidate_hits,omitempty"`
	CohRevalidateMisses uint64 `json:"coh_revalidate_misses,omitempty"`
	CohRevalidateBytes  uint64 `json:"coh_revalidate_bytes,omitempty"`
	// Fetch-pipeline columns: Fetches is the total FETCH count,
	// BlockingFetches the subset the application actually stalled on
	// (total minus speculative), and the Pf columns are the speculative
	// prefetcher's own accounting.
	Fetches         uint64 `json:"fetches,omitempty"`
	BlockingFetches uint64 `json:"blocking_fetches,omitempty"`
	PfIssued        uint64 `json:"pf_issued,omitempty"`
	PfCoalesced     uint64 `json:"pf_coalesced,omitempty"`
	PfHits          uint64 `json:"pf_hits,omitempty"`
	PfWasted        uint64 `json:"pf_wasted,omitempty"`
	PfBytes         uint64 `json:"pf_bytes,omitempty"`
	// Scale-out columns: Clients is the number of client spaces sharing
	// the one origin, and the Enc columns are the origin-side encode
	// cache's counters. EncBytes is a resident-size gauge recorded for
	// the tables but not compared.
	Clients          int    `json:"clients,omitempty"`
	EncHits          uint64 `json:"enc_hits,omitempty"`
	EncMisses        uint64 `json:"enc_misses,omitempty"`
	EncEvictions     uint64 `json:"enc_evictions,omitempty"`
	EncInvalidations uint64 `json:"enc_invalidations,omitempty"`
	EncBytes         uint64 `json:"enc_bytes,omitempty"`
	// Concurrent columns: committed sessions, the read/write split, and
	// the linearizability checker's history size and per-object
	// partition count — all functions of the per-client seed streams
	// alone. ConcCheckSec is the checker's wall time in the last run.
	ConcSessions   uint64  `json:"conc_sessions,omitempty"`
	ConcReads      uint64  `json:"conc_reads,omitempty"`
	ConcWrites     uint64  `json:"conc_writes,omitempty"`
	ConcCheckedOps uint64  `json:"conc_checked_ops,omitempty"`
	ConcPartitions uint64  `json:"conc_partitions,omitempty"`
	ConcCheckSec   float64 `json:"conc_check_sec,omitempty"`
	// Streaming columns: Chunks counts the KindFetchChunk frames on the
	// wire, and TTFAUsec is the wall-clock latency of the first faulting
	// access in microseconds, averaged over the measured runs.
	Chunks   uint64  `json:"chunks,omitempty"`
	TTFAUsec float64 `json:"ttfa_usec,omitempty"`
	// Recovery columns: completed sessions, chaos faults injected, and
	// the recovery machinery's totals. On the fault-free rows every
	// recovery counter must be zero (the zero-overhead claim).
	RecSessions   uint64 `json:"rec_sessions,omitempty"`
	RecFaults     uint64 `json:"rec_faults,omitempty"`
	RecRetries    uint64 `json:"rec_retries,omitempty"`
	RecReplays    uint64 `json:"rec_replays,omitempty"`
	RecStaleDrops uint64 `json:"rec_stale_drops,omitempty"`

	// Host-dependent outputs, averaged per operation over the measured
	// runs. Reported only: Check never compares them.
	WallSec         float64 `json:"wall_sec"`
	AllocsPerOp     uint64  `json:"allocs_per_op"`
	AllocBytesPerOp uint64  `json:"alloc_bytes_per_op"`
}

// colField maps each ReportRow JSON column name to its struct field.
var colField = func() map[string]int {
	t := reflect.TypeOf(ReportRow{})
	m := make(map[string]int, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		m[name] = i
	}
	return m
}()

// col returns the row's value in the named JSON column.
func (r ReportRow) col(name string) reflect.Value {
	i, ok := colField[name]
	if !ok {
		panic("bench: no report column " + name)
	}
	return reflect.ValueOf(r).Field(i)
}

// num returns a numeric column as a float64, the unit Check compares in.
func (r ReportRow) num(name string) float64 {
	switch v := r.col(name); v.Kind() {
	case reflect.Float64:
		return v.Float()
	case reflect.Int:
		return float64(v.Int())
	default:
		return float64(v.Uint())
	}
}

// cell formats a column for the -exp tables.
func (r ReportRow) cell(name string) string {
	switch v := r.col(name); v.Kind() {
	case reflect.String:
		return v.String()
	case reflect.Float64:
		return fmt.Sprintf("%.6g", v.Float())
	default:
		return fmt.Sprint(v.Interface())
	}
}

// uncompared are the columns Check never compares: the row key (matched,
// not compared), the host-dependent measurements and the encode cache's
// resident-size gauge.
var uncompared = map[string]bool{
	"figure": true, "policy": true, "ratio": true, "closure_bytes": true, "session": true, "clients": true,
	"wall_sec": true, "allocs_per_op": true, "alloc_bytes_per_op": true, "ttfa_usec": true, "conc_check_sec": true,
	"enc_bytes": true,
}

// comparedCols is every other column, in ReportRow order. A new column
// is compared unless it is listed in uncompared.
var comparedCols = func() []string {
	var cols []string
	t := reflect.TypeOf(ReportRow{})
	for i := 0; i < t.NumField(); i++ {
		if name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); !uncompared[name] {
			cols = append(cols, name)
		}
	}
	return cols
}()

// BuildReport runs every point of every family and returns the filled
// report.
func BuildReport(model netsim.Model, nodes, closure, runs int) (Report, error) {
	if runs < 1 {
		runs = 1
	}
	e := env{model: model, nodes: nodes, closure: closure}
	rep := Report{Schema: 8, Model: "ethernet10-sparc", Nodes: nodes, Closure: closure, Runs: runs}
	for i := range families {
		f := &families[i]
		for _, p := range f.points {
			rows, err := measure(f, e, p, runs)
			if err != nil {
				return Report{}, err
			}
			rep.Rows = append(rep.Rows, rows...)
		}
	}
	return rep, nil
}

// measure runs one point: once to warm caches (first-use initialization
// such as layout caches and pools is not charged), then `runs` measured
// times. The deterministic columns come from the last run (identical
// across runs by construction). Wall time and allocations are averaged
// over the runs and over the rows one run yields; ttfa_usec is averaged
// over the runs.
func measure(f *family, e env, p point, runs int) ([]ReportRow, error) {
	fail := func(err error) ([]ReportRow, error) {
		return nil, fmt.Errorf("report %s/%s/%.2f: %w", f.figure, p.name, p.ratio, err)
	}
	if _, err := f.run(e, p); err != nil {
		return fail(err)
	}
	var rows []ReportRow
	var ttfa []float64
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	start := time.Now()
	for i := 0; i < runs; i++ {
		var err error
		if rows, err = f.run(e, p); err != nil {
			return fail(err)
		}
		if ttfa == nil {
			ttfa = make([]float64, len(rows))
		}
		for j := range rows {
			ttfa[j] += rows[j].TTFAUsec
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms2)
	ops := uint64(runs * len(rows))
	for j := range rows {
		r := &rows[j]
		r.Figure, r.Policy = f.figure, p.name
		r.TTFAUsec = ttfa[j] / float64(runs)
		r.WallSec = wall.Seconds() / float64(ops)
		r.AllocsPerOp = (ms2.Mallocs - ms1.Mallocs) / ops
		r.AllocBytesPerOp = (ms2.TotalAlloc - ms1.TotalAlloc) / ops
	}
	return rows, nil
}

// Check compares the deterministic columns of cur against a committed
// baseline snapshot. Every baseline row must be present in cur (matched
// by rowKey) with every compared column equal; rows that exist only in
// cur are new experiments and pass. A family may narrow the compared
// columns for rows whose other columns are not deterministic
// (family.compared).
func Check(baseline, cur Report) error {
	if baseline.Nodes != cur.Nodes || baseline.Closure != cur.Closure {
		return fmt.Errorf("config mismatch: baseline %d nodes/%d closure, current %d/%d",
			baseline.Nodes, baseline.Closure, cur.Nodes, cur.Closure)
	}
	byKey := make(map[string]ReportRow, len(cur.Rows))
	for _, r := range cur.Rows {
		byKey[rowKey(r)] = r
	}
	var drifts []string
	for _, want := range baseline.Rows {
		got, ok := byKey[rowKey(want)]
		if !ok {
			drifts = append(drifts, fmt.Sprintf("%s: row missing", rowKey(want)))
			continue
		}
		cols := comparedCols
		if f := familyOf(want.Figure); f != nil && f.compared != nil {
			if narrow := f.compared(want); narrow != nil {
				cols = narrow
			}
		}
		for _, c := range cols {
			if w, g := want.num(c), got.num(c); w != g {
				drifts = append(drifts, fmt.Sprintf("%s: %s = %v, baseline %v", rowKey(want), c, g, w))
			}
		}
	}
	if len(drifts) > 0 {
		return fmt.Errorf("modeled columns drifted from baseline:\n  %s", strings.Join(drifts, "\n  "))
	}
	return nil
}

// rowKey identifies a row across snapshots. Families without a
// clients column carry 0 there.
func rowKey(r ReportRow) string {
	return fmt.Sprintf("%s/%s/%.4f/%d/%d/%d", r.Figure, r.Policy, r.Ratio, r.Closure, r.Session, r.Clients)
}
