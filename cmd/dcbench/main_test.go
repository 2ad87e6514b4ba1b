package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dircache/internal/bench"
)

// serveBase is a copy of the committed BENCH_serve.json metrics.
func serveBase() map[string]float64 {
	return map[string]float64{
		"storm/cold_errors":     0,
		"storm/cold_fs_lookups": 14,
		"storm/components":      14,
		"storm/conns":           64,
		"storm/rpcs_per_walk":   2,
		"storm/uids":            8,
		"storm/warm_fs_lookups": 0,
		"storm/warm_walks":      1600,
	}
}

func appsBase() map[string]float64 {
	return map[string]float64{
		"app/rm -r/opt":     100,
		"app/rm -r/unmod":   100,
		"app/rm -r/hit":     100,
		"app/rm -r/neg":     0,
		"app/tar xzf/opt":   100,
		"app/tar xzf/unmod": 100,
		"app/tar xzf/hit":   100,
		"app/tar xzf/neg":   0,
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      gate
		base   func() map[string]float64
		edit   func(m map[string]float64)
		keys   int
		failOn string // "" means the comparison must pass
	}{
		{"identical", exact, serveBase, func(map[string]float64) {}, 8, ""},
		{"zero turns nonzero", exact, serveBase, func(m map[string]float64) { m["storm/warm_fs_lookups"] = 1 }, 8, "storm/warm_fs_lookups"},
		{"one extra backend lookup", exact, serveBase, func(m map[string]float64) { m["storm/cold_fs_lookups"] = 15 }, 8, "storm/cold_fs_lookups"},
		{"inside the old 35% band", exact, serveBase, func(m map[string]float64) { m["storm/cold_fs_lookups"] = 18 }, 8, "storm/cold_fs_lookups"},
		{"key missing now", exact, serveBase, func(m map[string]float64) { delete(m, "storm/cold_errors") }, 8, "storm/cold_errors"},
		{"key not in baseline", exact, serveBase, func(m map[string]float64) { m["storm/new"] = 0 }, 9, "storm/new"},
		{"ratios in band", band, appsBase, func(m map[string]float64) { m["app/rm -r/opt"] = 114; m["app/tar xzf/opt"] = 130 }, 8, ""},
		{"rm -r beyond its band", band, appsBase, func(m map[string]float64) { m["app/rm -r/opt"] = 116; m["app/tar xzf/opt"] = 130 }, 8, "app/rm -r"},
		{"ratio beyond the band", band, appsBase, func(m map[string]float64) { m["app/tar xzf/unmod"] = 70 }, 8, "app/tar xzf"},
		{"hit rate drifts", band, appsBase, func(m map[string]float64) { m["app/tar xzf/hit"] = 99 }, 8, "app/tar xzf/hit"},
		{"app on one side only", band, appsBase, func(m map[string]float64) { m["app/du -s/opt"] = 1; m["app/du -s/unmod"] = 1 }, 10, "app/du -s"},
		{"timing under an exact gate", exact, appsBase, func(m map[string]float64) { m["app/tar xzf/opt"] = 101 }, 8, "app/tar xzf/opt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := tc.base()
			tc.edit(now)
			n, diffs := compare(tc.g, tc.base(), now)
			if n != tc.keys {
				t.Errorf("compared %d keys, want %d", n, tc.keys)
			}
			if tc.failOn == "" {
				if len(diffs) != 0 {
					t.Errorf("want a pass, got %q", diffs)
				}
				return
			}
			if len(diffs) != 1 || !strings.HasPrefix(diffs[0], tc.failOn+":") {
				t.Errorf("want one failure on %s, got %q", tc.failOn, diffs)
			}
		})
	}
}

// TestRunSmokeReportsEveryFailure gates four rows against baselines in a
// temporary directory: two pass, and the two that fail (a drifted count
// and a missing baseline) are both named.
func TestRunSmokeReportsEveryFailure(t *testing.T) {
	dir := t.TempDir()
	writeBase := func(file string, m map[string]float64) {
		buf, err := json.Marshal(metricsDoc{Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeBase("BENCH_serve.json", serveBase())
	writeBase("BENCH_apps.json", appsBase())
	gen := func(edit func(map[string]float64)) func(bench.Scale) (map[string]float64, error) {
		return func(bench.Scale) (map[string]float64, error) {
			m := serveBase()
			edit(m)
			return m, nil
		}
	}
	rows := []trajectory{
		{"BENCH_serve.json", gen(func(m map[string]float64) { m["storm/cold_fs_lookups"]++ }), exact},
		{"BENCH_apps.json", func(bench.Scale) (map[string]float64, error) { return appsBase(), nil }, band},
		{"BENCH_cold.json", gen(func(map[string]float64) {}), exact},
		{"BENCH_micro.json", nil, record},
	}
	err := runSmoke(dir, bench.Scale{}, rows)
	if err == nil {
		t.Fatal("smoke passed with two failing rows")
	}
	for _, want := range []string{"2 of 4", "BENCH_serve.json", "BENCH_cold.json"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if strings.Contains(err.Error(), "BENCH_apps.json") {
		t.Errorf("error %q names a passing row", err)
	}
}

// TestTrajectoriesTable checks that each BENCH_*.json file has one row
// and that every gated row has its baseline committed at the repo root.
func TestTrajectoriesTable(t *testing.T) {
	seen := map[string]bool{}
	for _, tr := range trajectories {
		if seen[tr.file] {
			t.Errorf("%s has two rows", tr.file)
		}
		seen[tr.file] = true
		if tr.gate == record {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("..", "..", tr.file))
		if err != nil {
			t.Errorf("gated row without a committed baseline: %v", err)
			continue
		}
		var doc metricsDoc
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Metrics) == 0 {
			t.Errorf("%s: no metrics in the committed baseline (%v)", tr.file, err)
		}
	}
}
