// Command perfbench is the repository's benchmark. It runs one closed-loop
// workload against the public entry points of the directory cache's layers,
// checks every answer against its own model of the namespace, and prints
// each metric by name, unit and sample count, then one JSON line:
//
//	perfbench --workload local-warm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it splits the time between an untraced and a traced run
// of the same workload and reports the per-layer metrics, from spans
// recorded around the calls into each layer and from the program's own
// counters. Build and run it through run.sh, which builds from the
// checkout's sources.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dircache/internal/sig"
)

type workloadSpec struct {
	setup   func(seed int64, traced bool) (instance, error)
	clients int
}

// workloads are the benchmark's workloads. Every answer of the first three
// must be exactly the model's; tier-rw admits stale answers between pumps.
var workloads = map[string]workloadSpec{
	"local-warm":  {setupLocalWarm, warmClients},
	"local-churn": {setupLocalChurn, 1},
	"wire-walk":   {setupWireWalk, len(wireUnames)},
	"tier-rw":     {setupTierRW, 1},
}

// setupRuns is how many times an untraced run sets its workload up;
// setup_s is the median and the last set-up is the one measured.
const setupRuns = 7

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	spansDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", names))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's tree and operations are drawn from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.spansDir, "spans-dir", "", "directory the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[o.workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0 or 1\n", names)
		return 2
	}
	o.dur = time.Duration(*seconds * float64(time.Second))
	o.traced = *trace == 1

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d clients=%d loop=closed\n",
		o.workload, o.seed, *seconds, *trace, spec.clients)
	var res *result
	var err error
	if o.traced {
		res, err = measureLayers(spec, o, stdout)
	} else {
		res, err = measureEndToEnd(spec, o, stdout)
	}
	if err != nil {
		res = &result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}, failure: err.Error()}
	}
	if res.Failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s\n", res.failure)
	}
	res.Correct = res.Failed == 0
	line, _ := json.Marshal(res) // only numbers, strings and bools: cannot fail
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	failure   string
}

// report fills res.Metrics from vals in the order of defs, and prints each
// with its unit, its sample count and, for a per-layer metric, what it
// should move.
func report(w io.Writer, res *result, defs []metricDef, vals map[string]float64, samples map[string]int64) {
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v := vals[d.name]
		res.Metrics[d.name] = metricValue{v, d.unit}
		line := fmt.Sprintf("  %-32s %16.6g %-8s", d.name, v, d.unit)
		if n, ok := samples[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if d.moves != "" {
			line += "  moves: " + d.moves
		}
		fmt.Fprintln(w, line)
	}
}

// ratios prints error_ratio and stale_ratio, the complements of the
// reported ok_ratio and fresh_read_ratio.
func ratios(w io.Writer, t *tally) {
	fmt.Fprintf(w, "  %-32s %16.6g %-8s n=%d\n", "error_ratio", ratio(t.wrong(), t.attempted), "fraction", t.attempted)
	fmt.Fprintf(w, "  %-32s %16.6g %-8s n=%d\n", "stale_ratio", ratio(t.staleReads, t.reads), "fraction", t.reads)
	if t.noErrno > 0 {
		fmt.Fprintf(w, "  %-32s %16d %-8s (ENOTDIR walks whose error reply carried no errno)\n", "walk_errors_without_errno", t.noErrno, "count")
	}
	if t.staleConverged > 0 {
		fmt.Fprintf(w, "  %-32s %16d %-8s (paths a shard still answered wrongly on existence after Converge)\n", "stale_after_converge", t.staleConverged, "count")
	}
	if t.staleWrites > 0 {
		fmt.Fprintf(w, "  %-32s %16d %-8s (writes refused by a shard that had not yet applied an earlier write)\n", "stale_writes", t.staleWrites, "count")
	}
}

func measureEndToEnd(spec workloadSpec, o options, w io.Writer) (*result, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		in, err := spec.setup(o.seed, false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			in.close()
		} else {
			inst = in
		}
	}
	defer inst.close()
	runtime.GC()
	t, _ := inst.run(o.dur, false)
	inst.verify(t)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	ops, p50, p99 := t.windowed()
	vals := map[string]float64{
		"ops_per_s":        ops,
		"read_p50_us":      p50 / 1e3,
		"read_p99_us":      p99 / 1e3,
		"ok_ratio":         1 - ratio(t.wrong(), t.attempted),
		"fresh_read_ratio": 1 - ratio(t.staleReads, t.reads),
		"heap_mb":          float64(ms.HeapInuse) / (1 << 20),
		"setup_s":          median(setups),
	}
	samples := map[string]int64{
		"ops_per_s": t.attempted, "read_p50_us": t.reads, "read_p99_us": t.reads,
		"ok_ratio": t.attempted, "fresh_read_ratio": t.reads, "heap_mb": 1, "setup_s": setupRuns,
	}
	res := &result{Attempted: t.attempted, Failed: t.failures, failure: t.failure}
	report(w, res, endToEnd, vals, samples)
	fmt.Fprintf(w, "  (ops_per_s and the read quantiles are medians over %d windows of %v)\n", len(t.wins), t.winLen)
	fmt.Fprintf(w, "  %-32s %16.6g %-8s n=%d\n", "write_p50_us", t.writeH.quantile(0.50)/1e3, "us", t.writes)
	fmt.Fprintf(w, "  %-32s %16.6g %-8s n=%d\n", "write_p99_us", t.writeH.quantile(0.99)/1e3, "us", t.writes)
	ratios(w, t)
	return res, nil
}

// sigSink keeps the standalone hash loop from being optimised away.
var sigSink int

// sigHashNs times sig.Key.NewState().AppendString over paths, standalone.
func sigHashNs(paths []string) float64 {
	key := sig.NewKey(1)
	n := 0
	t0 := time.Now()
	for time.Since(t0) < minTimed {
		for _, p := range paths {
			sigSink += key.NewState().AppendString(p).Len()
		}
		n += len(paths)
	}
	return float64(time.Since(t0)) / float64(n)
}

func measureLayers(spec workloadSpec, o options, w io.Writer) (*result, error) {
	half := o.dur / 2

	// The untraced half: the baseline for bench.trace_overhead, and the
	// write latencies, which tracing would distort.
	inst, err := spec.setup(o.seed, false)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	plain, _ := inst.run(half, false)
	plainOps, _, _ := plain.windowed()
	inst.verify(plain)
	inst.close()

	// The traced half.
	inst, err = spec.setup(o.seed, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	runtime.GC()
	systems := inst.systems()
	stats0, slab0 := snapshotStats(systems), sumSlabStats(systems)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	t, recs := inst.run(half, true)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	c, slab := sumDelta(systems, stats0), sumSlabStats(systems)
	spans := spanTotals(recs)
	inst.verify(t)

	ops := t.attempted
	vals := map[string]float64{
		"sig.hash_ns_per_op":             sigHashNs(inst.samplePaths()),
		"sig.hashed_bytes_per_op":        ratio(c.hashedBytes, ops),
		"core.fast_hit_ratio":            ratio(c.fastHits, c.tryFast),
		"core.dlht_misses_per_op":        ratio(c.dlhtMisses, ops),
		"core.pcc_misses_per_op":         ratio(c.pccMisses, ops),
		"core.shortcut_resumes_per_op":   ratio(c.shortcuts, ops),
		"core.child_hops_per_op":         ratio(c.childHops, ops),
		"core.admission_deferred_per_op": ratio(c.deferred, ops),
		"vfs.slow_walk_ratio":            ratio(c.slowWalks, c.lookups),
		"vfs.components_per_slow_walk":   ratio(c.components, c.slowWalks),
		"vfs.retry_walks_per_op":         ratio(c.retries, ops),
		"vfs.fs_lookups_per_op":          ratio(c.fsLookups, ops),
		"vfs.evictions_per_op":           ratio(c.evictions, ops),
		"vfs.evictions_per_fs_lookup":    ratio(c.evictions, c.fsLookups),
		"vfs.bulk_populations_per_scan":  ratio(c.bulk, t.scans),
		"vfs.seq_bumps_per_write":        ratio(c.seqBumps, t.writes),
		"vfs.batch_shootdowns_per_write": ratio(c.batchShoots, t.writes),
		"write_p50_us":                   plain.writeH.quantile(0.50) / 1e3,
		"write_p99_us":                   plain.writeH.quantile(0.99) / 1e3,
		"slab.live_slots":                float64(slab.live),
		"slab.limbo_slots":               float64(slab.limbo),
		"slab.reclaimed_per_write":       ratio(slab.reclaimed-slab0.reclaimed, t.writes),
		"runtime.gc_pause_max_ms":        maxPauseMs(&ms0, &ms1),
		"runtime.gc_cycles_per_s":        float64(ms1.NumGC-ms0.NumGC) / elapsed.Seconds(),
	}
	inst.layerMetrics(vals, &spans, t)
	tracedOps, _, _ := t.windowed()
	if plainOps > 0 {
		vals["bench.trace_overhead"] = (plainOps - tracedOps) / plainOps
	}

	res := &result{Attempted: plain.attempted + t.attempted, Failed: plain.failures + t.failures, failure: plain.failure}
	if res.failure == "" {
		res.failure = t.failure
	}
	report(w, res, perLayer, vals, map[string]int64{"write_p50_us": plain.writes, "write_p99_us": plain.writes})
	fmt.Fprintf(w, "  untraced ops_per_s %.6g over %d ops; traced ops_per_s %.6g over %d ops\n",
		plainOps, plain.attempted, tracedOps, t.attempted)
	ratios(w, t)
	printLayerSelf(w, spans, ops)
	if o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, recs); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "  spans written to %s\n", path)
	}
	return res, nil
}

// maxPauseMs returns the longest stop-the-world GC pause between two
// MemStats reads. The runtime keeps the last 256 pauses; older ones of a
// longer run are not seen.
func maxPauseMs(before, after *runtime.MemStats) float64 {
	n := after.NumGC - before.NumGC
	if n > uint32(len(after.PauseNs)) {
		n = uint32(len(after.PauseNs))
	}
	var worst uint64
	for i := uint32(0); i < n; i++ {
		worst = max(worst, after.PauseNs[(after.NumGC-1-i)%uint32(len(after.PauseNs))])
	}
	return float64(worst) / 1e6
}
