package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
)

// env is the configuration every family runs at: the network cost model,
// the tree size and the closure budget (srpcbench -nodes/-closure).
type env struct {
	model          netsim.Model
	nodes, closure int
}

// point is one configuration within a family. A family reads only the
// fields it needs; the rest stay zero.
type point struct {
	// name is the row's policy column.
	name   string
	policy core.Policy
	// ratio is the access, mutation or write ratio.
	ratio float64
	// closure overrides the closure budget (fig6); zero keeps env's.
	closure int
	clients int
	// chunk is the streaming chunk size in bytes.
	chunk int
	// drop, dup and corrupt are the chaos mix in per mille.
	drop, dup, corrupt int
	// off switches the family's feature off: the point is the family's
	// ablation control.
	off bool
}

// family is one experiment family of the regression report. Adding a
// family means adding one entry to families: BuildReport measures it,
// Check compares it, and a family with cols gets an `srpcbench -exp`
// table.
type family struct {
	// figure tags the family's rows and names its -exp table.
	figure string
	points []point
	// run executes one point once and fills the deterministic columns of
	// its rows (plus ttfa_usec and conc_check_sec for that run). measure
	// stamps figure and policy and fills the wall/alloc columns.
	run func(e env, p point) ([]ReportRow, error)
	// compared narrows Check for baseline rows whose other columns are
	// not deterministic; nil (or a nil result) compares comparedCols.
	compared func(want ReportRow) []string
	// title heads the -exp table and cols are the columns it prints; a
	// family without cols has no -exp table (fig4 and fig6 have their
	// paper-figure printers).
	title func(e env) string
	cols  []string
}

// families is the regression suite, in report order.
var families = []family{
	{
		figure: "fig4",
		points: policySweep(),
		run:    treeRun(nil),
	},
	{
		figure: "fig6",
		points: closureSweep(),
		run:    treeRun(nil),
	},
	{
		// The multi-want FETCH protocol against its single-want
		// ablation: the message counts quantify the batching win.
		figure: "fetch-batch",
		points: []point{
			{name: "smart", ratio: 0.5}, {name: "smart-nobatch", ratio: 0.5, off: true},
			{name: "smart", ratio: 1}, {name: "smart-nobatch", ratio: 1, off: true},
		},
		run: treeRun(func(c *TreeConfig, p point) { c.DisableFetchBatch = p.off }),
	},
	{
		// Delta shipping against its full-shipping ablation on the
		// repeated update workload: coh_item_bytes quantifies the win.
		figure: "coh-delta",
		points: []point{
			{name: "smart-delta", ratio: 0.5}, {name: "smart-fullship", ratio: 0.5, off: true},
			{name: "smart-delta", ratio: 1}, {name: "smart-fullship", ratio: 1, off: true},
		},
		run: treeRun(func(c *TreeConfig, p point) {
			c.Update, c.Repeats, c.DisableDeltaShip = true, 8, p.off
		}),
	},
	{
		// Per-session traffic of the warm cross-session cache over a
		// mutation-ratio sweep, with the discard-on-invalidate ablation
		// at ratio 0 as the control.
		figure: "warm-sessions",
		points: []point{
			{name: "smart-warm"}, {name: "smart-warm", ratio: 0.05}, {name: "smart-warm", ratio: 0.25},
			{name: "smart-coldstart", off: true},
		},
		run: runWarm,
		title: func(e env) string {
			return fmt.Sprintf("Warm cross-session cache: 4 sessions, tree %d nodes, closure %d bytes", e.nodes, e.closure)
		},
		cols: []string{"policy", "ratio", "session", "model_sec", "item_body_bytes", "coh_revalidate_hits",
			"coh_revalidate_misses", "coh_revalidate_bytes", "messages", "net_bytes"},
	},
	{
		// The pointer-chase workload with the speculative prefetcher off
		// (the demand baseline) and on. One client with synchronous
		// speculation keeps every column, prefetch counters included,
		// deterministic.
		figure: "pipeline",
		points: []point{{name: "smart-demand", off: true}, {name: "smart-prefetch"}},
		run:    runPipeline,
		title: func(e env) string {
			return fmt.Sprintf("Fetch pipeline: pointer chase, chain %d nodes, closure %d bytes", e.nodes, e.closure)
		},
		cols: []string{"policy", "model_sec", "messages", "net_bytes", "fetches", "blocking_fetches",
			"pf_issued", "pf_hits", "pf_wasted"},
	},
	{
		// N clients sharing one origin with the encode cache on (client
		// sweep at ratio 0, mutation sweep at 8 clients) and the
		// re-encode-everything ablation as the control.
		figure: "scaleout",
		points: []point{
			{name: "smart-enccache", clients: 1}, {name: "smart-enccache", clients: 4},
			{name: "smart-enccache", clients: 8}, {name: "smart-enccache", clients: 8, ratio: 0.05},
			{name: "smart-enccache", clients: 8, ratio: 0.25}, {name: "smart-noenccache", clients: 8, off: true},
		},
		run: runScaleout,
		title: func(e env) string {
			return fmt.Sprintf("Scale-out: clients sharing one origin, tree %d nodes, closure %d bytes, 2 rounds", e.nodes, e.closure)
		},
		cols: []string{"policy", "clients", "ratio", "model_sec", "messages", "net_bytes", "enc_hits",
			"enc_misses", "enc_evictions", "enc_invalidations", "enc_bytes"},
	},
	{
		// K clients holding truly overlapping sessions over one shared
		// origin, every run verified linearizable by internal/histcheck.
		figure: "concurrent",
		points: []point{
			{name: "smart-concurrent", clients: 2, ratio: 0.25}, {name: "smart-concurrent", clients: 4, ratio: 0.25},
			{name: "smart-concurrent", clients: 8}, {name: "smart-concurrent", clients: 8, ratio: 0.05},
			{name: "smart-concurrent", clients: 8, ratio: 0.25},
		},
		run: runConcurrent,
		// Wire traffic and timing depend on the real interleaving; only
		// the seed-deterministic operation counts are compared.
		compared: func(ReportRow) []string {
			return []string{"conc_sessions", "conc_reads", "conc_writes", "conc_checked_ops", "conc_partitions"}
		},
		title: func(e env) string {
			return fmt.Sprintf("Concurrent sessions: clients sharing one origin, tree %d nodes, closure %d bytes, "+
				"every history verified linearizable", e.nodes, e.closure)
		},
		cols: []string{"clients", "ratio", "conc_sessions", "conc_reads", "conc_writes", "conc_checked_ops",
			"conc_partitions", "conc_check_sec", "wall_sec", "messages", "net_bytes"},
	},
	{
		// One huge closure shipped to a single client over a chunk-size
		// sweep plus the monolithic-reply ablation; ttfa_usec is the
		// wall-clock payoff.
		figure: "stream",
		points: []point{
			{name: "smart-stream-16k", chunk: 16 << 10}, {name: "smart-stream-64k", chunk: 64 << 10},
			{name: "smart-stream-256k", chunk: 256 << 10}, {name: "smart-nostream", off: true},
		},
		run: runStream,
		title: func(e env) string {
			return fmt.Sprintf("Streamed transfer: chain %d nodes, one closure-sized FETCH", e.nodes)
		},
		cols: []string{"policy", "ttfa_usec", "wall_sec", "messages", "net_bytes", "chunks", "fetches"},
	},
	{
		// The zero-overhead pair first (the identical fault-free
		// workload with recovery disarmed and armed, whose wire columns
		// must be identical), then a transient-fault sweep.
		figure: "recover",
		points: []point{
			{name: "smart-recover-off", off: true}, {name: "smart-recover-clean"},
			{name: "smart-recover-drop", drop: 250}, {name: "smart-recover-dup", dup: 100},
			{name: "smart-recover-corrupt", corrupt: 60},
			{name: "smart-recover-mix", drop: 150, dup: 150, corrupt: 60},
		},
		run: runRecover,
		// On faulted rows retries race real-time deadlines, so traffic
		// and timing are host-dependent; the deterministic claim is
		// completion: every configured session finished.
		compared: func(want ReportRow) []string {
			if want.RecFaults > 0 {
				return []string{"rec_sessions"}
			}
			return nil
		},
		title: func(e env) string {
			return fmt.Sprintf("Exchange recovery: 3 sessions under transient faults, tree 1023 nodes, closure %d bytes, "+
				"every session's checksum verified", e.closure)
		},
		cols: []string{"policy", "model_sec", "messages", "net_bytes", "rec_sessions", "rec_faults",
			"rec_retries", "rec_replays", "rec_stale_drops"},
	},
}

// policySweep is Figure 4's grid: every policy at five access ratios.
func policySweep() []point {
	var pts []point
	for _, pol := range []core.Policy{core.PolicyEager, core.PolicyLazy, core.PolicySmart} {
		for _, r := range []float64{0, 0.25, 0.5, 0.75, 1} {
			pts = append(pts, point{name: pol.String(), policy: pol, ratio: r})
		}
	}
	return pts
}

// closureSweep is Figure 6's closure axis: full searches at every size.
func closureSweep() []point {
	var pts []point
	for _, cs := range DefaultClosureSizes {
		pts = append(pts, point{name: "smart", ratio: 1, closure: cs})
	}
	return pts
}

func familyOf(figure string) *family {
	for i := range families {
		if families[i].figure == figure {
			return &families[i]
		}
	}
	return nil
}

// perCrossing is messages per boundary crossing (0 without crossings).
func perCrossing(msgs, crossings uint64) float64 {
	if crossings == 0 {
		return 0
	}
	return float64(msgs) / float64(crossings)
}

// treeRun returns the run of a tree-search family; tune adds the
// family's workload and ablation switches.
func treeRun(tune func(*TreeConfig, point)) func(env, point) ([]ReportRow, error) {
	return func(e env, p point) ([]ReportRow, error) {
		cfg := TreeConfig{Policy: p.policy, Nodes: e.nodes, ClosureSize: e.closure, AccessRatio: p.ratio, Model: e.model}
		if p.closure != 0 {
			cfg.ClosureSize = p.closure
		}
		if tune != nil {
			tune(&cfg, p)
		}
		res, err := RunTree(cfg)
		if err != nil {
			return nil, err
		}
		return []ReportRow{{
			Ratio:           p.ratio,
			Closure:         cfg.ClosureSize,
			ModelSec:        res.Time.Seconds(),
			Callbacks:       res.Callbacks,
			Messages:        res.Messages,
			NetBytes:        res.Bytes,
			Faults:          res.Faults,
			Crossings:       res.Crossings,
			MsgsPerCrossing: perCrossing(res.Messages, res.Crossings),
			CohItemBytes:    res.CohItemBytes,
			CohItemsShipped: res.CohItemsShipped,
			CohDeltaItems:   res.CohDeltaItems,
			CohItemsSkipped: res.CohItemsSkipped,
		}}, nil
	}
}

// runWarm yields one row per session of a repeated-session run.
func runWarm(e env, p point) ([]ReportRow, error) {
	res, err := RunWarmSessions(WarmConfig{
		Nodes:            e.nodes,
		ClosureSize:      e.closure,
		Sessions:         4,
		MutationRatio:    p.ratio,
		Model:            e.model,
		DisableWarmCache: p.off,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ReportRow, 0, len(res.Sessions))
	for i, s := range res.Sessions {
		rows = append(rows, ReportRow{
			Ratio:               p.ratio,
			Closure:             e.closure,
			Session:             i + 1,
			ModelSec:            s.Time.Seconds(),
			Callbacks:           s.Callbacks,
			Messages:            s.Messages,
			NetBytes:            s.Bytes,
			Faults:              s.Faults,
			Crossings:           s.Crossings,
			MsgsPerCrossing:     perCrossing(s.Messages, s.Crossings),
			ItemBodyBytes:       s.ItemBodyBytes,
			CohRevalidateHits:   s.RevalidateHits,
			CohRevalidateMisses: s.RevalidateMisses,
			CohRevalidateBytes:  s.RevalidateBytes,
		})
	}
	return rows, nil
}

func runPipeline(e env, p point) ([]ReportRow, error) {
	res, err := RunPipeline(PipelineConfig{
		ChainNodes:   e.nodes,
		ClosureSize:  e.closure,
		Prefetch:     !p.off,
		SyncPrefetch: true,
		Model:        e.model,
	})
	if err != nil {
		return nil, err
	}
	return []ReportRow{{
		Closure:         e.closure,
		ModelSec:        res.Time.Seconds(),
		Messages:        res.Messages,
		NetBytes:        res.Bytes,
		Faults:          res.Faults,
		Fetches:         res.Fetches,
		BlockingFetches: res.BlockingFetches,
		PfIssued:        res.PfIssued,
		PfCoalesced:     res.PfCoalesced,
		PfHits:          res.PfHits,
		PfWasted:        res.PfWasted,
		PfBytes:         res.PfBytes,
	}}, nil
}

// runScaleout runs the clients sequentially, so every column, the
// encode-cache counters included, is deterministic.
func runScaleout(e env, p point) ([]ReportRow, error) {
	res, err := RunScaleout(ScaleoutConfig{
		Nodes:              e.nodes,
		ClosureSize:        e.closure,
		Clients:            p.clients,
		Rounds:             2,
		MutationRatio:      p.ratio,
		Model:              e.model,
		DisableEncodeCache: p.off,
	})
	if err != nil {
		return nil, err
	}
	return []ReportRow{{
		Ratio:            p.ratio,
		Closure:          e.closure,
		Clients:          p.clients,
		ModelSec:         res.Time.Seconds(),
		Messages:         res.Messages,
		NetBytes:         res.Bytes,
		Faults:           res.Faults,
		Fetches:          res.Fetches,
		EncHits:          res.EncHits,
		EncMisses:        res.EncMisses,
		EncEvictions:     res.EncEvictions,
		EncInvalidations: res.EncInvalidations,
		EncBytes:         res.EncBytes,
	}}, nil
}

// runConcurrent leaves the network model free: virtual time is
// ill-defined when sessions overlap.
func runConcurrent(e env, p point) ([]ReportRow, error) {
	res, err := RunConcurrent(ConcurrentConfig{
		Nodes:       e.nodes,
		ClosureSize: e.closure,
		Clients:     p.clients,
		WriteRatio:  p.ratio,
		Seed:        1,
	})
	if err != nil {
		return nil, err
	}
	return []ReportRow{{
		Ratio:          p.ratio,
		Closure:        e.closure,
		Clients:        p.clients,
		Messages:       res.Messages,
		NetBytes:       res.Bytes,
		ConcSessions:   res.Sessions,
		ConcReads:      res.Reads,
		ConcWrites:     res.Writes,
		ConcCheckedOps: res.CheckedOps,
		ConcPartitions: res.Partitions,
		ConcCheckSec:   res.CheckTime.Seconds(),
	}}, nil
}

// runStream keeps StreamConfig's large closure budget so the whole chain
// ships on the first fault whatever the report's closure setting.
func runStream(e env, p point) ([]ReportRow, error) {
	cfg := StreamConfig{Nodes: e.nodes, StreamChunkBytes: p.chunk, DisableStreaming: p.off, Model: e.model}
	res, err := RunStream(cfg)
	if err != nil {
		return nil, err
	}
	cfg.fill()
	return []ReportRow{{
		Closure:  cfg.ClosureSize,
		ModelSec: res.Time.Seconds(),
		Messages: res.Messages,
		NetBytes: res.Bytes,
		Faults:   res.Faults,
		Fetches:  res.Fetches,
		Chunks:   res.Chunks,
		TTFAUsec: float64(res.TTFA.Microseconds()),
	}}, nil
}

// runRecover keeps the tree small and fixed whatever the report's nodes
// setting: the faulted points pay a real CallTimeout per absorbed fault,
// and the chaos schedule stays stable.
func runRecover(e env, p point) ([]ReportRow, error) {
	res, err := RunRecover(RecoverConfig{
		Nodes:           1023,
		ClosureSize:     e.closure,
		Sessions:        3,
		MutationRatio:   0.05,
		DropPermille:    p.drop,
		DupPermille:     p.dup,
		CorruptPermille: p.corrupt,
		Seed:            1,
		DisableRecovery: p.off,
		Model:           e.model,
	})
	if err != nil {
		return nil, err
	}
	return []ReportRow{{
		Closure:       e.closure,
		ModelSec:      res.Time.Seconds(),
		Messages:      res.Messages,
		NetBytes:      res.Bytes,
		Faults:        res.Faults,
		RecSessions:   res.Sessions,
		RecFaults:     res.ChaosFaults,
		RecRetries:    res.Retries,
		RecReplays:    res.Replays,
		RecStaleDrops: res.StaleDrops,
	}}, nil
}

// Tables lists the families with an `srpcbench -exp` table, in report
// order.
func Tables() []string {
	var names []string
	for _, f := range families {
		if f.cols != nil {
			names = append(names, f.figure)
		}
	}
	return names
}

// PrintTable measures every point of the named family once (after a
// warm-up run) and prints the family's columns to w as an aligned table,
// or as CSV when csv is set.
func PrintTable(w io.Writer, figure string, model netsim.Model, nodes, closure int, csv bool) error {
	f := familyOf(figure)
	if f == nil || f.cols == nil {
		return fmt.Errorf("unknown experiment %q", figure)
	}
	e := env{model: model, nodes: nodes, closure: closure}
	var rows []ReportRow
	for _, p := range f.points {
		r, err := measure(f, e, p, 1)
		if err != nil {
			return err
		}
		rows = append(rows, r...)
	}
	if csv {
		fmt.Fprintf(w, "%s.", f.figure)
		printRows(w, ",", f.cols, rows)
		return nil
	}
	fmt.Fprintf(w, "\n== %s ==\n", f.title(e))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	printRows(tw, "\t", f.cols, rows)
	return tw.Flush()
}

// printRows writes a header line of column names, then one line per row.
func printRows(w io.Writer, sep string, cols []string, rows []ReportRow) {
	fmt.Fprintln(w, strings.Join(cols, sep))
	for _, r := range rows {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = r.cell(c)
		}
		fmt.Fprintln(w, strings.Join(cells, sep))
	}
}
