package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// A model that disagrees with the program must fail the check, on the
// read path of local-warm and in local-churn's final verification.
func TestFlippedModelEntryFails(t *testing.T) {
	in, err := setupLocalWarm(1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	w := in.(*localWarm)
	w.tab.isDir[0] = !w.tab.isDir[0] // rank 0: the hottest path
	got, _ := w.run(time.Second, false)
	if got.failures == 0 {
		t.Fatalf("flipped file type of %s went unnoticed over %d ops", w.tab.paths[0], got.attempted)
	}

	in, err = setupLocalChurn(1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	c := in.(*localChurn)
	ok := &tally{}
	c.verify(ok)
	if ok.failures != 0 {
		t.Fatalf("unflipped model failed verification: %s", ok.failure)
	}
	victim := c.ch.dirs[0].list[0]
	victim.dir = !victim.dir
	bad := &tally{}
	c.verify(bad)
	if bad.failures == 0 {
		t.Fatalf("flipped file type of %s went unnoticed", victim.path())
	}
}

// Without pumps the shards never learn of each other's writes, so more
// reads must contradict the session's own acknowledged writes.
func TestWithheldPumpRaisesStaleRatio(t *testing.T) {
	stale := func(pumpN int) float64 {
		in, err := setupTierRW(1, false)
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		w := in.(*tierRW)
		w.pumpN = pumpN
		got := &tally{}
		for i := 0; i < 4000; i++ {
			w.step(got, nil)
		}
		if got.failures != 0 {
			t.Fatalf("pumpN=%d: %s", pumpN, got.failure)
		}
		return ratio(got.staleReads, got.reads)
	}
	pumped, withheld := stale(pumpEvery), stale(0)
	t.Logf("stale ratio: %.4f with a pump every %d ops, %.4f with pumps withheld", pumped, pumpEvery, withheld)
	if withheld <= pumped {
		t.Fatalf("stale ratio with pumps withheld %.4f, not above %.4f with a pump every %d ops", withheld, pumped, pumpEvery)
	}
}

// The histogram's quantiles must match the nearest-rank quantiles of the
// sorted samples to within one bucket.
func TestHistQuantilesMatchSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h hist
	var samples []int64
	for i := 0; i < 100000; i++ {
		v := int64(rng.ExpFloat64() * 5000) // a long-tailed latency shape, in ns
		if i%100 == 0 {
			v *= 300 // a rare slow path
		}
		samples = append(samples, v)
		h.record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(samples))))
		want := float64(samples[rank-1])
		got := h.quantile(q)
		if tol := math.Max(1, want/subBuckets); math.Abs(got-want) > tol {
			t.Errorf("q=%g: histogram says %.1f, sorted samples say %.0f (tolerance %.1f)", q, got, want, tol)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram must read 0")
	}
}

// A span's self time excludes the time its children cover.
func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder(0, time.Now())
	op := r.begin(spOp)
	s := r.begin(spRouterStat)
	c := r.begin(spShardStat)
	time.Sleep(2 * time.Millisecond)
	r.end(c)
	r.end(s)
	r.end(op)
	st := r.stats
	if st[spShardStat].selfNs != st[spShardStat].totalNs {
		t.Errorf("leaf span self time %d != its duration %d", st[spShardStat].selfNs, st[spShardStat].totalNs)
	}
	if self := st[spRouterStat].selfNs; self < 0 || self >= int64(time.Millisecond) {
		t.Errorf("router span self time %dns should exclude its 2ms child", self)
	}
	if len(r.kept) != 3 || r.kept[2].parent != 1 || r.kept[1].parent != 0 || r.kept[0].parent != -1 {
		t.Errorf("kept spans lost their parents: %+v", r.kept)
	}
}

// BENCHMARK.json must list the metrics the command reports, in order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %s %s %s", kind, i, got[i], d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not one the command runs", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
}
