// Command dcbench regenerates the tables and figures of "How to Get More
// Value From Your File System Directory Cache" (SOSP 2015) against this
// repository's baseline and optimized directory caches.
//
// Usage:
//
//	dcbench [-scale small|paper] [-list] [-json file] [-smoke file]
//	        [-telemetry] [-trace-sample n] [-metrics-addr host:port]
//	        [experiment ...]
//
// With no experiment arguments, every experiment runs in paper order.
// -json additionally writes every report's structured data to the named
// file (conventionally BENCH_parallel.json) and every row of the
// trajectories table beside it (schemas in EXPERIMENTS.md).
// -smoke gates every row of that table against the committed baseline of
// the same name beside the named file (this is `make bench-smoke`, part of
// `make ci`). Each row has one gate kind:
//   - exact: every key must match the baseline bit for bit, zeros
//     included, and a key on one side only fails (BENCH_cold, deep, serve
//     and shard, and the app/*/hit|neg rates of BENCH_apps);
//   - band: the app/<name>/{opt,unmod} wall times of BENCH_apps, compared
//     as the opt/unmod ratio within ±0.35 (±0.15 for rm -r);
//   - budget: BENCH_trace, which fails when tracing at 1/64 sampling costs
//     3% or more on the warm fastpath;
//   - record: BENCH_micro and BENCH_mem, written by -json and never gated.
//
// -telemetry attaches one
// process-wide telemetry subsystem to every system the experiments build;
// -metrics-addr serves its histograms and walk traces live over HTTP
// while the run progresses.
// Experiment IDs: fig1 fig2 fig3 fig6 fig7 fig8 fig9 fig10 table1 table2
// table3 table4.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dircache"
	"dircache/internal/bench"
)

func main() {
	scale := flag.String("scale", "paper", "experiment scale: small or paper")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.String("json", "", "write machine-readable results to this file (e.g. BENCH_parallel.json); also writes every BENCH_*.json trajectory beside it")
	smoke := flag.String("smoke", "", "gate every BENCH_*.json trajectory against the committed baseline beside this file (e.g. BENCH_apps.json); exits nonzero naming every trajectory that failed")
	telemetryOn := flag.Bool("telemetry", false, "attach one process-wide telemetry subsystem to every system the experiments build")
	traceSample := flag.Int("trace-sample", 64, "with -telemetry, trace 1-in-N walks into the trace ring (0 disables tracing)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (e.g. localhost:9150); implies -telemetry")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof and Go runtime metrics on the metrics endpoint; implies -telemetry (default address localhost:0)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dcbench [-scale small|paper] [-list] [-json file] [-smoke file] [-telemetry] [-trace-sample n] [-metrics-addr host:port] [-pprof] [experiment ...]\n\n")
		fmt.Fprintf(os.Stderr, "experiments:\n")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Desc)
		}
	}
	flag.Parse()

	if *pprofOn && *metricsAddr == "" {
		*metricsAddr = "localhost:0"
	}
	var tel *dircache.Telemetry
	if *telemetryOn || *metricsAddr != "" {
		tel = dircache.NewTelemetry(dircache.TelemetryOptions{TraceSample: *traceSample})
		dircache.SetDefaultTelemetry(tel)
		if *metricsAddr != "" {
			serve := tel.Serve
			if *pprofOn {
				serve = tel.ServeDebug
			}
			srv, err := serve(*metricsAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcbench: metrics endpoint: %v\n", err)
				os.Exit(2)
			}
			defer srv.Close()
			fmt.Printf("telemetry: serving metrics on http://%s/metrics (traces at /traces, events at /events)\n", srv.Addr())
			if *pprofOn {
				fmt.Printf("telemetry: pprof on http://%s/debug/pprof/\n", srv.Addr())
			}
			fmt.Println()
		}
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	var sc bench.Scale
	switch *scale {
	case "small":
		sc = bench.SmallScale()
	case "paper":
		sc = bench.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "dcbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	if *smoke != "" {
		if err := runSmoke(filepath.Dir(*smoke), sc, trajectories); err != nil {
			fmt.Fprintf(os.Stderr, "dcbench: smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var todo []bench.Experiment
	if flag.NArg() == 0 {
		todo = bench.Experiments()
	} else {
		for _, id := range flag.Args() {
			e, ok := bench.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "dcbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	failed := 0
	var results []jsonReport
	for _, e := range todo {
		t0 := time.Now()
		rep, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcbench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		el := time.Since(t0)
		fmt.Println(rep)
		fmt.Printf("(%s took %v)\n\n", e.ID, el.Round(time.Millisecond))
		results = append(results, jsonReport{
			ID:        rep.ID,
			Title:     rep.Title,
			ElapsedMS: el.Milliseconds(),
			Data:      rep.Data,
			Notes:     rep.Notes,
		})
	}
	if *jsonOut != "" {
		written := []string{*jsonOut}
		if err := writeDoc(*jsonOut, jsonDoc{GeneratedAt: timestamp(), Scale: *scale, Experiments: results}); err != nil {
			fmt.Fprintf(os.Stderr, "dcbench: %v\n", err)
			failed++
		}
		for _, t := range trajectories {
			path := filepath.Join(filepath.Dir(*jsonOut), t.file)
			metrics, err := t.gen(sc)
			if err == nil {
				err = writeDoc(path, metricsDoc{GeneratedAt: timestamp(), Scale: *scale, Metrics: metrics})
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcbench: %s: %v\n", t.file, err)
				failed++
			}
			written = append(written, path)
		}
		if failed == 0 {
			fmt.Printf("wrote %s\n", strings.Join(written, ", "))
		}
	}
	if tel != nil {
		if p50, p95, p99, ok := tel.HistogramQuantiles("walk"); ok {
			fmt.Printf("telemetry: walk latency p50=%v p95=%v p99=%v over %d traced walk(s) retained\n",
				p50, p95, p99, tel.TraceCount())
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// gate is how -smoke checks one trajectory against its committed baseline.
type gate int

const (
	// record: written by -json for the perf trajectory, never gated. Its
	// values are timings and heap sizes that vary by host and run.
	record gate = iota
	// exact: every key must be on both sides with the same value, zeros
	// included. The values are counts of work (RPCs, backend lookups,
	// hashed bytes, invalidations), so any difference is a behavior change.
	exact
	// band: app/<name>/{opt,unmod} wall times are compared as the
	// opt/unmod ratio within ratioBand; every other key is exact.
	band
	// budget: the generator's own error is the gate. The committed file
	// must exist but is a record, since absolute ns/op vary by host.
	budget
)

func (g gate) String() string {
	return [...]string{"record", "exact", "band", "budget"}[g]
}

// trajectory is one BENCH_*.json file: -json writes gen's metrics to it,
// and -smoke checks gen's metrics against the committed copy under gate.
type trajectory struct {
	file string
	gen  func(bench.Scale) (map[string]float64, error)
	gate gate
}

// trajectories is every BENCH_*.json file dcbench writes beside the -json
// file and gates beside the -smoke file. The small-scale gated ones are
// committed at the repo root; regenerate them with `make dcbench`.
var trajectories = []trajectory{
	{"BENCH_micro.json", bench.MicroTrajectory, record},
	{"BENCH_apps.json", bench.AppTrajectory, band},
	{"BENCH_cold.json", bench.ColdTrajectory, exact},
	{"BENCH_deep.json", bench.DeepTrajectory, exact},
	{"BENCH_serve.json", bench.ServeTrajectory, exact},
	{"BENCH_trace.json", bench.TraceTrajectory, budget},
	{"BENCH_mem.json", bench.MemTrajectory, record},
	{"BENCH_shard.json", bench.ShardTrajectory, exact},
}

// ratioBand bounds how far an app's opt/unmod wall-time ratio may drift
// from the baseline. Ratios (not absolute times) make the check robust to
// machine speed; the wide band absorbs scheduler noise while still
// catching gross regressions like a teardown path going 2x slower.
const ratioBand = 0.35

// appBand narrows the band for applications whose ratio a change is
// specifically accountable for. "rm -r" is the teardown gate of the
// memory-scale work: lazy slab reclaim plus the fastpath child hop
// brought its opt/unmod ratio from ~1.25 to ~1.08, and this band keeps
// the regression headroom at the acceptance bar (within 10% of
// unmodified, plus measurement noise) instead of the generic 35%.
var appBand = map[string]float64{
	"rm -r": 0.15,
}

// runSmoke checks every row against the baseline of the same name in dir
// and prints one pass/FAIL line per file. It runs every row even after a
// failure, and its error names every row that failed.
func runSmoke(dir string, sc bench.Scale, rows []trajectory) error {
	var failed []string
	for _, t := range rows {
		verdict, msg, err := "pass", "", error(nil)
		if t.gate == record {
			verdict, msg = "----", "not gated (written by -json as a record)"
		} else if msg, err = check(filepath.Join(dir, t.file), sc, t); err != nil {
			verdict, msg = "FAIL", err.Error()
			failed = append(failed, t.file)
		}
		fmt.Printf("smoke: %s %-17s %-6s %s\n", verdict, t.file, t.gate, msg)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d trajectories failed: %s", len(failed), len(rows), strings.Join(failed, ", "))
	}
	return nil
}

// check runs one gated row against the baseline at path and says what it
// compared.
func check(path string, sc bench.Scale, t trajectory) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var base metricsDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	now, err := t.gen(sc)
	if err != nil {
		return "", err
	}
	if t.gate == budget {
		return "within budget: " + formatMetrics(now), nil
	}
	n, diffs := compare(t.gate, base.Metrics, now)
	if len(diffs) > 0 {
		return "", fmt.Errorf("%d of %d keys off the baseline:\n    %s", len(diffs), n, strings.Join(diffs, "\n    "))
	}
	return fmt.Sprintf("%d keys compared, 0 skipped", n), nil
}

// compare checks now against base under an exact or band gate. It returns
// how many keys it compared (every key on either side) and one line per
// difference.
func compare(g gate, base, now map[string]float64) (int, []string) {
	keys := make([]string, 0, len(base)+len(now))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range now {
		if _, ok := base[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	apps := map[string]bool{}
	for _, k := range keys {
		if g == band {
			if app, ok := appTiming(k); ok {
				apps[app] = true
				continue
			}
		}
		b, inBase := base[k]
		n, inNow := now[k]
		switch {
		case !inBase:
			diffs = append(diffs, fmt.Sprintf("%s: %v, not in the baseline", k, n))
		case !inNow:
			diffs = append(diffs, fmt.Sprintf("%s: missing, baseline %v", k, b))
		case n != b:
			diffs = append(diffs, fmt.Sprintf("%s: %v, baseline %v (exact)", k, n, b))
		}
	}
	names := make([]string, 0, len(apps))
	for app := range apps {
		names = append(names, app)
	}
	sort.Strings(names)
	for _, app := range names {
		tol, ok := appBand[app]
		if !ok {
			tol = ratioBand
		}
		b, inBase := ratio(base, app)
		n, inNow := ratio(now, app)
		switch {
		case !inBase || !inNow:
			diffs = append(diffs, fmt.Sprintf("app/%s: opt/unmod ratio on one side only", app))
		case !(math.Abs(n-b) <= tol):
			diffs = append(diffs, fmt.Sprintf("app/%s: opt/unmod %.2f, baseline %.2f, drift %+.2f beyond ±%.2f", app, n, b, n-b, tol))
		}
	}
	return len(keys), diffs
}

// appTiming reports whether key is an app/<name>/{opt,unmod} wall time and
// which app it times.
func appTiming(key string) (string, bool) {
	rest, ok := strings.CutPrefix(key, "app/")
	if !ok {
		return "", false
	}
	if app, ok := strings.CutSuffix(rest, "/opt"); ok {
		return app, true
	}
	return strings.CutSuffix(rest, "/unmod")
}

func ratio(m map[string]float64, app string) (float64, bool) {
	o, ok1 := m["app/"+app+"/opt"]
	u, ok2 := m["app/"+app+"/unmod"]
	if !ok1 || !ok2 || u == 0 {
		return 0, false
	}
	return o / u, true
}

func formatMetrics(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = fmt.Sprintf("%s=%.4g", k, m[k])
	}
	return strings.Join(keys, " ")
}

// jsonReport is the machine-readable projection of one bench.Report: the
// structured Data map the shape tests assert on, not the rendered table.
type jsonReport struct {
	ID        string             `json:"id"`
	Title     string             `json:"title"`
	ElapsedMS int64              `json:"elapsed_ms"`
	Data      map[string]float64 `json:"data"`
	Notes     []string           `json:"notes,omitempty"`
}

type jsonDoc struct {
	GeneratedAt string       `json:"generated_at"`
	Scale       string       `json:"scale"`
	Experiments []jsonReport `json:"experiments"`
}

// metricsDoc is the BENCH_*.json trajectory schema: a flat
// "series/point" → value map, diffed across PRs (schemas documented in
// EXPERIMENTS.md).
type metricsDoc struct {
	GeneratedAt string             `json:"generated_at"`
	Scale       string             `json:"scale"`
	Metrics     map[string]float64 `json:"metrics"`
}

func writeDoc(path string, doc any) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func timestamp() string { return time.Now().UTC().Format(time.RFC3339) }
