// Command srpcbench regenerates the paper's evaluation: every figure of
// §4 plus the design-choice ablations listed in DESIGN.md.
//
// Usage:
//
//	srpcbench -exp all
//	srpcbench -exp fig4 -nodes 32767 -closure 8192
//	srpcbench -exp fig6 -repeats 10
//	srpcbench -exp table1
//	srpcbench -exp ablations
//	srpcbench -exp warm-sessions   # or pipeline, scaleout, concurrent, stream, recover
//
// Timing is virtual (deterministic), produced by the netsim cost model
// calibrated to the paper's testbed: SPARCstation (28.5 MIPS) on 10 Mbps
// Ethernet with TCP_NODELAY.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"smartrpc/internal/bench"
	"smartrpc/internal/netsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "srpcbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	tables := bench.Tables()
	fs := flag.NewFlagSet("srpcbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: fig4|fig5|fig6|fig7|table1|ablations|"+strings.Join(tables, "|")+"|all")
	nodes := fs.Int("nodes", 32767, "tree size (2^k - 1 nodes)")
	closure := fs.Int("closure", 8192, "closure size in bytes")
	repeats := fs.Int("repeats", 10, "repeated searches for fig6")
	csvOut := fs.Bool("csv", false, "emit figure data as CSV instead of tables")
	jsonOut := fs.Bool("json", false, "run the regression suite and emit a JSON report (srpcbench -json > BENCH_<n>.json)")
	runs := fs.Int("runs", 5, "measured repetitions per point in -json mode")
	checkFile := fs.String("check", "", "compare the regression suite's deterministic modeled columns against a committed BENCH_<n>.json snapshot; exit nonzero on any drift")
	if err := fs.Parse(args); err != nil {
		return err
	}
	csv = *csvOut
	model := netsim.Ethernet10SPARC()
	if *checkFile != "" {
		return checkAgainst(model, *checkFile)
	}
	if *jsonOut {
		return emitJSON(model, *nodes, *closure, *runs)
	}

	runOne := func(name string) error {
		switch name {
		case "fig4":
			return fig4(model, *nodes, *closure)
		case "fig5":
			return fig5(model, *nodes, *closure)
		case "fig6":
			return fig6(model, *repeats)
		case "fig7":
			return fig7(model, *nodes, *closure)
		case "table1":
			return table1()
		case "ablations":
			return ablations(model)
		}
		if err := bench.PrintTable(os.Stdout, name, model, *nodes, *closure, csv); err != nil {
			return err
		}
		if name == "pipeline" && !csv {
			return pipelineDemo(*nodes, *closure)
		}
		return nil
	}
	if *exp == "all" {
		for _, name := range append([]string{"table1", "fig4", "fig5", "fig6", "fig7", "ablations"}, tables...) {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*exp)
}

// csv switches figure output to comma-separated series for plotting.
var csv bool

// emitJSON runs the benchmark-regression suite and writes the report to
// stdout. Redirect into a BENCH_<n>.json snapshot; `-check` then holds
// later trees to its deterministic columns. The wall/allocation columns
// are recorded for reading, not compared.
func emitJSON(model netsim.Model, nodes, closure, runs int) error {
	rep, err := bench.BuildReport(model, nodes, closure, runs)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}

// checkAgainst rebuilds the regression suite at the baseline's
// configuration and fails if any deterministic modeled column moved. A
// single measured run suffices: the modeled outputs are identical across
// runs by construction, and the host-dependent columns are not compared.
func checkAgainst(model netsim.Model, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var baseline bench.Report
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	cur, err := bench.BuildReport(model, baseline.Nodes, baseline.Closure, 1)
	if err != nil {
		return err
	}
	if err := bench.Check(baseline, cur); err != nil {
		return fmt.Errorf("against %s: %w", path, err)
	}
	fmt.Printf("srpcbench: modeled columns match %s (%d rows, schema %d)\n", path, len(baseline.Rows), baseline.Schema)
	return nil
}

func sec(d time.Duration) float64 { return d.Seconds() }

func fig4(model netsim.Model, nodes, closure int) error {
	rows, err := bench.Fig4(model, nodes, closure, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("fig4.ratio,eager_s,lazy_s,smart_s")
		for _, r := range rows {
			fmt.Printf("%.2f,%.6f,%.6f,%.6f\n", r.Ratio, sec(r.Eager), sec(r.Lazy), sec(r.Smart))
		}
		return nil
	}
	fmt.Printf("\n== Figure 4: processing time (s) vs access ratio ==\n")
	fmt.Printf("   tree %d nodes, closure %d bytes\n", nodes, closure)
	fmt.Printf("%-8s %-12s %-12s %-12s\n", "ratio", "fully-eager", "fully-lazy", "proposed")
	for _, r := range rows {
		fmt.Printf("%-8.2f %-12.3f %-12.3f %-12.3f\n", r.Ratio, sec(r.Eager), sec(r.Lazy), sec(r.Smart))
	}
	return nil
}

func fig5(model netsim.Model, nodes, closure int) error {
	rows, err := bench.Fig5(model, nodes, closure, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("fig5.ratio,lazy_callbacks,smart_callbacks")
		for _, r := range rows {
			fmt.Printf("%.2f,%d,%d\n", r.Ratio, r.Lazy, r.Smart)
		}
		return nil
	}
	fmt.Printf("\n== Figure 5: number of callbacks vs access ratio ==\n")
	fmt.Printf("   tree %d nodes, closure %d bytes\n", nodes, closure)
	fmt.Printf("%-8s %-12s %-12s\n", "ratio", "fully-lazy", "proposed")
	for _, r := range rows {
		fmt.Printf("%-8.2f %-12d %-12d\n", r.Ratio, r.Lazy, r.Smart)
	}
	return nil
}

func fig6(model netsim.Model, repeats int) error {
	cells, err := bench.Fig6(model, nil, nil, repeats)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("fig6.nodes,closure_bytes,time_s")
		for _, c := range cells {
			fmt.Printf("%d,%d,%.6f\n", c.Nodes, c.Closure, sec(c.Time))
		}
		return nil
	}
	fmt.Printf("\n== Figure 6: processing time (s) vs closure size (%d repeated searches) ==\n", repeats)
	fmt.Printf("%-14s", "closure(KB)")
	for _, n := range bench.DefaultTreeSizes {
		fmt.Printf(" %-14s", fmt.Sprintf("%d nodes", n))
	}
	fmt.Println()
	for _, cs := range bench.DefaultClosureSizes {
		fmt.Printf("%-14.1f", float64(cs)/1024)
		for _, n := range bench.DefaultTreeSizes {
			for _, c := range cells {
				if c.Nodes == n && c.Closure == cs {
					fmt.Printf(" %-14.3f", sec(c.Time))
				}
			}
		}
		fmt.Println()
	}
	return nil
}

func fig7(model netsim.Model, nodes, closure int) error {
	rows, err := bench.Fig7(model, nodes, closure, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Println("fig7.ratio,updated_s,not_updated_s")
		for _, r := range rows {
			fmt.Printf("%.2f,%.6f,%.6f\n", r.Ratio, sec(r.Updated), sec(r.NotUpdated))
		}
		return nil
	}
	fmt.Printf("\n== Figure 7: update performance (s) vs update ratio ==\n")
	fmt.Printf("   tree %d nodes, closure %d bytes\n", nodes, closure)
	fmt.Printf("%-8s %-12s %-12s %-8s\n", "ratio", "updated", "not-updated", "×")
	for _, r := range rows {
		ratio := 0.0
		if r.NotUpdated > 0 {
			ratio = float64(r.Updated) / float64(r.NotUpdated)
		}
		fmt.Printf("%-8.2f %-12.3f %-12.3f %-8.2f\n", r.Ratio, sec(r.Updated), sec(r.NotUpdated), ratio)
	}
	return nil
}

// pipelineDemo is the wall-clock half of `-exp pipeline` (the table half
// is the registry's pipeline family): on a real link delay, asynchronous
// speculation physically overlaps fetch round trips with the
// application's own chewing. Its timings are not report rows.
func pipelineDemo(nodes, closure int) error {
	// A 5 ms one-way delay (10 ms round trip) against ~13 ms of per-closure
	// application think time: enough computation that asynchronous
	// speculation can hide the round trips behind it, as real clients do.
	const (
		demoClients = 2
		demoDelay   = 5 * time.Millisecond
		demoThink   = time.Millisecond
		demoEvery   = 20 // nodes per think pause
	)
	demoNodes := nodes / 4
	fmt.Printf("\n-- wall-clock overlap: %d clients, chain %d nodes, %s link delay, %s think per %d nodes --\n",
		demoClients, demoNodes, demoDelay, demoThink, demoEvery)
	fmt.Printf("%-16s %-12s %-9s %-10s %-10s %-10s\n",
		"config", "wall(s)", "fetches", "blocking", "pf-issued", "coalesced")
	for _, p := range []struct {
		name     string
		prefetch bool
	}{{"smart-demand", false}, {"smart-prefetch", true}} {
		res, err := bench.RunPipeline(bench.PipelineConfig{ChainNodes: demoNodes, Clients: demoClients,
			ClosureSize: closure, LinkDelay: demoDelay, Think: demoThink, ThinkEvery: demoEvery,
			Prefetch: p.prefetch})
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %-12.3f %-9d %-10d %-10d %-10d\n",
			p.name, res.WallTime.Seconds(), res.Fetches, res.BlockingFetches,
			res.PfIssued, res.PfCoalesced)
	}
	return nil
}

func table1() error {
	fmt.Printf("\n== Table 1: data allocation table after swizzling pointers A and B ==\n")
	s, err := bench.Table1()
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func ablations(model netsim.Model) error {
	fmt.Printf("\n== Ablations (DESIGN.md §5) ==\n")
	print := func(title string, rows []bench.AblationRow, err error) error {
		if err != nil {
			return err
		}
		fmt.Printf("\n-- %s --\n", title)
		fmt.Printf("%-24s %-10s %-11s %-10s %-12s\n", "config", "time(s)", "callbacks", "messages", "bytes")
		for _, r := range rows {
			fmt.Printf("%-24s %-10.3f %-11d %-10d %-12d\n", r.Name, sec(r.Time), r.Callbacks, r.Messages, r.Bytes)
		}
		return nil
	}
	rows, err := bench.PageSizeAblation(model, 8191, nil)
	if err := print("page size (protection grain)", rows, err); err != nil {
		return err
	}
	rows, err = bench.TraversalAblation(model, 8191, 8192)
	if err := print("closure traversal order", rows, err); err != nil {
		return err
	}
	rows, err = bench.CoherenceAblation(model, 8191, 8192)
	if err := print("coherency protocol", rows, err); err != nil {
		return err
	}
	rows, err = bench.DeltaShipAblation(model, 8191, 8192, 8)
	if err != nil {
		return err
	}
	fmt.Printf("\n-- delta shipping (repeated update searches) --\n")
	fmt.Printf("%-24s %-10s %-11s %-10s %-12s %-12s\n", "config", "time(s)", "callbacks", "messages", "bytes", "coh-bytes")
	for _, r := range rows {
		fmt.Printf("%-24s %-10.3f %-11d %-10d %-12d %-12d\n", r.Name, sec(r.Time), r.Callbacks, r.Messages, r.Bytes, r.CohBytes)
	}
	rows, err = bench.AllocPolicyAblation(model, 512)
	if err := print("cache page allocation heuristic", rows, err); err != nil {
		return err
	}
	rows, err = bench.BatchingAblation(model, 1000)
	if err := print("remote malloc batching", rows, err); err != nil {
		return err
	}
	rows, err = bench.ClosureHintAblation(model, 12, 8192)
	if err := print("closure shape hints (left-path walk)", rows, err); err != nil {
		return err
	}
	rows, err = bench.ChainCoherenceAblation(model, 8)
	if err := print("coherency on a 3-space chain", rows, err); err != nil {
		return err
	}
	rows, err = bench.HashWorkload(model, 16384, 16)
	if err := print("hash-table retrieval (sparse access, §4.1 remark)", rows, err); err != nil {
		return err
	}
	return nil
}
