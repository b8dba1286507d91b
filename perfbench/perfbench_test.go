package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"

	"smartrpc/internal/core"
)

// tinyConfig is a configuration small enough for unit tests.
func tinyConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.2, trace: trace,
		nodes: 255, lookups: 8, setups: 2, warmup: 1, minSessions: 5}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layers []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: reported %d metrics, BENCHMARK.json declares %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: reported %q where BENCHMARK.json declares %q", what, got[i], want[i])
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that it is correct and reports exactly the declared metrics.
func TestSmoke(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(w, trace)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layers
			}
			sameSet(t, w, keys(res.Metrics), append([]string(nil), want...))
			if trace {
				continue
			}
			for _, name := range []string{"frames_per_session", "session_p50_ms", "setup_s"} {
				if v := res.Metrics[name].Value; v <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, name, v)
				}
			}
		}
	}
}

// TestMetricNames checks every declared name against the allowed alphabet.
func TestMetricNames(t *testing.T) {
	e2e, layers := declared(t)
	ok := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, n := range append(append([]string(nil), e2e...), layers...) {
		if !ok.MatchString(n) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("metric name %q declared twice", n)
		}
		seen[n] = true
	}
}

// TestQuantile pins the nearest-rank percentile and the rule that a
// percentile is resolved only with ten samples beyond it.
func TestQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if v, ok := quantile(xs, 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := quantile(xs[:99], 0.9); v != 91 || ok {
		t.Errorf("p90 of 2..100 = %v, %v; want 91, false (9 beyond)", v, ok)
	}
	if v, ok := quantile(xs[80:], 0.5); v != 10 || !ok {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := quantile(xs[81:], 0.5); ok {
		t.Error("p50 of 19 samples resolved; want fewer than 10 beyond")
	}
	if v, ok := quantile(nil, 0.5); v != 0 || ok {
		t.Errorf("p50 of nothing = %v, %v", v, ok)
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
}

// TestCovered pins the self-time arithmetic: overlapping children count once.
func TestCovered(t *testing.T) {
	kids := []span{{Start: 5, End: 15}, {Start: 10, End: 20}, {Start: 30, End: 50}}
	if got := covered(0, 40, kids); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
	self := selfTimes([]span{{ID: 1, Name: "a", Start: 0, End: 40},
		{ID: 2, Parent: 1, Name: "b", Start: 5, End: 15}, {ID: 3, Parent: 2, Name: "c", Start: 6, End: 8}})
	if self["a"] != 30 || self["b"] != 8 || self["c"] != 2 {
		t.Errorf("self times %v", self)
	}
}

// TestTreeColdOracleRejectsTamperedResult feeds the walk oracle results
// that are wrong in each returned value.
func TestTreeColdOracleRejectsTamperedResult(t *testing.T) {
	w, err := newTreeCold(tinyConfig("tree-cold", false))
	if err != nil {
		t.Fatal(err)
	}
	want := w.want[0]
	good := []core.Value{core.Int64Value(want.visited), core.Int64Value(want.sum), core.Uint64Value(want.hash)}
	if err := checkWalk(good, want); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	for i := range good {
		bad := append([]core.Value(nil), good...)
		bad[i].Word++
		if checkWalk(bad, want) == nil {
			t.Errorf("result with value %d tampered accepted", i)
		}
	}
	if checkWalk(good[:2], want) == nil {
		t.Error("short result accepted")
	}
}

// TestTreeUpdateOracleRejectsTamperedTree changes one node of the
// caller's tree behind the shadow model's back.
func TestTreeUpdateOracleRejectsTamperedTree(t *testing.T) {
	b := newBench(tinyConfig("tree-update", false))
	w, err := newTreeUpdate(b.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.prepare(b); err != nil {
		t.Fatal(err)
	}
	ref, err := w.p.caller.Deref(w.p.nodes[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("data", 0, w.shadow[3]+1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.session(b, 0); err == nil {
		t.Fatal("session over a tampered tree passed the oracle")
	}
}

// TestIndexOracleRejectsTamperedOrigin changes one value in the origin's
// index, which the end-of-run oracle must notice.
func TestIndexOracleRejectsTamperedOrigin(t *testing.T) {
	b := newBench(tinyConfig("index-lookup-tcp", false))
	w, err := newIndexLookup(b.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.prepare(b); err != nil {
		t.Fatal(err)
	}
	if err := w.finish(b); err != nil {
		t.Fatalf("untampered index rejected: %v", err)
	}
	root, err := w.env.origin.ImportPtr(w.env.root)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.env.origin.Deref(root)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ref.Int("val", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("val", 0, v+1); err != nil {
		t.Fatal(err)
	}
	if w.finish(b) == nil {
		t.Fatal("tampered origin value passed the oracle")
	}
}
