package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"smartrpc/internal/bench"
)

// unbuildable are the committed snapshots no buildable tree matches:
// they predate the frame integrity checksum (+4 bytes per frame), so
// their net_bytes and model_sec are history, not a gate.
var unbuildable = map[string]bool{"BENCH_1.json": true, "BENCH_2.json": true}

// TestSnapshotCoverage backs CI's single modeled-figure step, which runs
// `srpcbench -check` on a few snapshots only. Every other buildable
// snapshot must be covered by one of them: same tree size and closure
// budget, every row key present, every compared column equal — exactly
// what bench.Check verifies with the covering snapshot standing in for
// the current tree. And no checked snapshot may be covered by another
// checked one, or its step would be redundant.
func TestSnapshotCoverage(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := make(map[string]bench.Report)
	for _, m := range regexp.MustCompile(`srpcbench -check (BENCH_\d+\.json)`).FindAllSubmatch(ci, -1) {
		checked[string(m[1])] = loadSnapshot(t, string(m[1]))
	}
	if len(checked) == 0 {
		t.Fatal("ci.yml runs no srpcbench -check step")
	}
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		name := filepath.Base(p)
		if unbuildable[name] {
			continue
		}
		snap := loadSnapshot(t, name)
		var coveredBy []string
		for c, rep := range checked {
			if c != name && bench.Check(snap, rep) == nil {
				coveredBy = append(coveredBy, c)
			}
		}
		_, isChecked := checked[name]
		switch {
		case isChecked && len(coveredBy) > 0:
			t.Errorf("%s is checked in CI but already covered by %v", name, coveredBy)
		case !isChecked && len(coveredBy) == 0:
			t.Errorf("%s is neither checked in CI nor covered by a checked snapshot", name)
		}
	}
	// The paper's tree size (8191 nodes) lives only in BENCH_4; the
	// newer snapshots run at 32767, which is why BENCH_4 keeps a step.
	b4, b10 := checked["BENCH_4.json"], checked["BENCH_10.json"]
	if b4.Nodes == 0 || b10.Nodes == 0 {
		t.Fatal("ci.yml no longer checks BENCH_4.json and BENCH_10.json")
	}
	if b4.Nodes == b10.Nodes && b4.Closure == b10.Closure {
		t.Errorf("BENCH_4 and BENCH_10 share a configuration (%d nodes, %d closure)", b4.Nodes, b4.Closure)
	}
}

func loadSnapshot(t *testing.T, name string) bench.Report {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("../..", name))
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return rep
}
