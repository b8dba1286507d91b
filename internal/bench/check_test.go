package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// loadReport reads a committed snapshot from the repository root.
func loadReport(t *testing.T, name string) Report {
	t.Helper()
	raw, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return rep
}

// bumped returns a copy of rep whose row i has column col increased by
// one.
func bumped(rep Report, i int, col string) Report {
	rep.Rows = append([]ReportRow(nil), rep.Rows...)
	v := reflect.ValueOf(&rep.Rows[i]).Elem().Field(colField[col])
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	default:
		v.SetUint(v.Uint() + 1)
	}
	return rep
}

// keyCols identify a row; changing one turns the row into a missing one.
var keyCols = map[string]bool{"figure": true, "policy": true, "ratio": true, "closure_bytes": true, "session": true, "clients": true}

// hostCols are host-dependent or gauges; Check must never compare them.
var hostCols = []string{"wall_sec", "allocs_per_op", "alloc_bytes_per_op", "ttfa_usec", "enc_bytes", "conc_check_sec"}

// TestCheckComparedColumns tampers with one row of every family in
// BENCH_10.json, one column at a time, and requires Check to fail
// exactly on the columns it promises to compare: every deterministic
// column, except that a concurrent row compares its conc_* counts only
// and a faulted recover row its completed sessions only.
func TestCheckComparedColumns(t *testing.T) {
	base := loadReport(t, "BENCH_10.json")
	if err := Check(base, base); err != nil {
		t.Fatalf("snapshot does not match itself: %v", err)
	}
	host := make(map[string]bool)
	for _, c := range hostCols {
		host[c] = true
	}
	concCols := map[string]bool{"conc_sessions": true, "conc_reads": true, "conc_writes": true,
		"conc_checked_ops": true, "conc_partitions": true}
	// One row per family, plus a faulted recover row.
	seen := make(map[string]bool)
	var picks []int
	for i, r := range base.Rows {
		kind := r.Figure
		if r.Figure == "recover" && r.RecFaults > 0 {
			kind = "recover-faulted"
		}
		if !seen[kind] {
			seen[kind] = true
			picks = append(picks, i)
		}
	}
	if !seen["concurrent"] || !seen["recover"] || !seen["recover-faulted"] {
		t.Fatalf("snapshot lacks a narrowed row kind: %v", seen)
	}
	for _, i := range picks {
		row := base.Rows[i]
		for col := range colField {
			if keyCols[col] {
				continue
			}
			var want bool // Check must fail
			switch {
			case row.Figure == "concurrent":
				want = concCols[col]
			case row.Figure == "recover" && row.RecFaults > 0:
				want = col == "rec_sessions"
			default:
				want = !host[col]
			}
			err := Check(base, bumped(base, i, col))
			if got := err != nil; got != want {
				t.Errorf("%s: bumping %s: Check error %v, want failure %v", rowKey(row), col, err, want)
			}
		}
	}
}

// TestCheckHostColumnsIgnored: host-dependent columns may move on every
// row at once without failing the gate.
func TestCheckHostColumnsIgnored(t *testing.T) {
	base := loadReport(t, "BENCH_10.json")
	cur := base
	for i := range base.Rows {
		for _, col := range hostCols {
			cur = bumped(cur, i, col)
		}
	}
	if err := Check(base, cur); err != nil {
		t.Fatalf("host-dependent columns were compared: %v", err)
	}
}

// TestCheckMissingRowAndConfig: a baseline row absent from the current
// report, or a different tree size or closure budget, fails the gate.
func TestCheckMissingRowAndConfig(t *testing.T) {
	base := loadReport(t, "BENCH_10.json")
	for i := range base.Rows {
		cur := base
		cur.Rows = append(append([]ReportRow(nil), base.Rows[:i]...), base.Rows[i+1:]...)
		if err := Check(base, cur); err == nil || !strings.Contains(err.Error(), "row missing") {
			t.Fatalf("dropping %s: Check error %v, want row missing", rowKey(base.Rows[i]), err)
		}
	}
	// Extra rows in the current report are new experiments and pass.
	cur := base
	cur.Rows = append(append([]ReportRow(nil), base.Rows...), ReportRow{Figure: "new-family"})
	if err := Check(base, cur); err != nil {
		t.Fatalf("extra row failed the gate: %v", err)
	}
	for _, tamper := range []func(*Report){
		func(r *Report) { r.Nodes++ },
		func(r *Report) { r.Closure++ },
	} {
		cur := base
		tamper(&cur)
		if err := Check(base, cur); err == nil || !strings.Contains(err.Error(), "config mismatch") {
			t.Fatalf("config change: Check error %v, want config mismatch", err)
		}
	}
}

// TestFamiliesWellFormed: every registry column name exists, figures are
// unique, and no family lists a point twice.
func TestFamiliesWellFormed(t *testing.T) {
	figures := make(map[string]bool)
	for _, f := range families {
		if figures[f.figure] {
			t.Errorf("figure %s declared twice", f.figure)
		}
		figures[f.figure] = true
		if (f.cols == nil) != (f.title == nil) {
			t.Errorf("%s: a table needs both a title and columns", f.figure)
		}
		for _, c := range f.cols {
			if _, ok := colField[c]; !ok {
				t.Errorf("%s: table column %q is not a report column", f.figure, c)
			}
		}
		if f.compared != nil {
			for _, c := range f.compared(ReportRow{RecFaults: 1}) {
				if _, ok := colField[c]; !ok {
					t.Errorf("%s: compared column %q is not a report column", f.figure, c)
				}
			}
		}
		keys := make(map[point]bool)
		for _, p := range f.points {
			if keys[p] {
				t.Errorf("%s: point %+v listed twice", f.figure, p)
			}
			keys[p] = true
		}
	}
}
