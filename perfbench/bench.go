package main

import (
	"sort"
	"sync"
	"time"

	"dircache"
)

// tally counts one client's operations and how they were answered.
type tally struct {
	attempted int64 // operations issued
	reads     int64 // stats, walks, readdirs and scans
	writes    int64 // creates, unlinks and renames
	scans     int64 // readdir-then-stat-each-child operations

	// staleReads and staleWrites are answers that contradict an earlier
	// acknowledged write of the same client. Only tier-rw admits them: its
	// shards catch up on each other's writes at the next pump.
	staleReads  int64
	staleWrites int64
	// staleConverged counts paths some shard still answered wrongly on
	// existence after the final Converge (tier-rw only).
	staleConverged int64
	// failures are answers the model rules out entirely.
	failures int64
	failure  string // the first failure, described
	// noErrno counts wire walks through a regular file whose error
	// carried no errno.
	noErrno int64

	readH, writeH hist

	// The timed phase is also cut into windows of winLen. ops_per_s and
	// the read quantiles are medians over the windows, so interference
	// from outside the benchmark that lasts a moment moves one window,
	// not the result. Warm-up tallies have no windows.
	start  time.Time
	winLen time.Duration
	wins   []window
}

type window struct {
	correct int64 // operations answered correctly that ended in the window
	readH   hist
}

// windowLen is the length of one window of a timed phase.
const windowLen = 500 * time.Millisecond

// setWindows cuts the d after start into whole windows.
func (t *tally) setWindows(start time.Time, d time.Duration) {
	n := int(d / windowLen)
	t.start, t.winLen = start, windowLen
	if n == 0 {
		n, t.winLen = 1, d
	}
	t.wins = make([]window, n)
}

// win returns the window now falls in, or nil past the last whole one.
func (t *tally) win(now time.Time) *window {
	if t.winLen == 0 {
		return nil
	}
	if i := int(now.Sub(t.start) / t.winLen); i >= 0 && i < len(t.wins) {
		return &t.wins[i]
	}
	return nil
}

// read records the latency of a read that began at t0, and returns now.
func (t *tally) read(t0 time.Time) time.Time {
	now := time.Now()
	ns := int64(now.Sub(t0))
	t.readH.record(ns)
	if w := t.win(now); w != nil {
		w.readH.record(ns)
	}
	t.reads++
	return now
}

// write records the latency of a write that began at t0.
func (t *tally) write(t0 time.Time) {
	t.writeH.record(int64(time.Since(t0)))
	t.writes++
}

// done counts an operation that ended at now.
func (t *tally) done(now time.Time, correct bool) {
	t.attempted++
	if w := t.win(now); w != nil && correct {
		w.correct++
	}
}

func (t *tally) fail(msg string) {
	t.failures++
	if t.failure == "" {
		t.failure = msg
	}
}

// wrong counts the operations that did not get a correct answer.
func (t *tally) wrong() int64 { return t.staleReads + t.staleWrites + t.failures }

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.reads += o.reads
	t.writes += o.writes
	t.scans += o.scans
	t.staleReads += o.staleReads
	t.staleWrites += o.staleWrites
	t.failures += o.failures
	t.staleConverged += o.staleConverged
	t.noErrno += o.noErrno
	if t.failure == "" {
		t.failure = o.failure
	}
	t.readH.merge(&o.readH)
	t.writeH.merge(&o.writeH)
	if t.wins == nil {
		t.start, t.winLen = o.start, o.winLen
		t.wins = make([]window, len(o.wins))
	}
	for i := range o.wins {
		t.wins[i].correct += o.wins[i].correct
		t.wins[i].readH.merge(&o.wins[i].readH)
	}
}

// windowed returns the medians over the windows of correct operations per
// second and of the read latency quantiles, in ns.
func (t *tally) windowed() (opsPerS, p50, p99 float64) {
	var ops, q50, q99 []float64
	for i := range t.wins {
		w := &t.wins[i]
		ops = append(ops, float64(w.correct)/t.winLen.Seconds())
		q50 = append(q50, w.readH.quantile(0.50))
		q99 = append(q99, w.readH.quantile(0.99))
	}
	return median(ops), median(q50), median(q99)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// instance is one workload, set up and ready to measure.
type instance interface {
	// systems returns the System instances behind the workload, whose
	// counters the per-layer metrics read.
	systems() []*dircache.System
	// run drives every client in a closed loop until d has passed or, on
	// an exact workload, an answer is wrong. With traced, each client
	// records spans.
	run(d time.Duration, traced bool) (*tally, []*recorder)
	// layerMetrics adds the workload's own per-layer metrics, measured
	// over the traced run that just ended.
	layerMetrics(out map[string]float64, spans *spanTable, t *tally)
	// samplePaths returns paths drawn like the workload's reads, for the
	// standalone timing of the signature hash.
	samplePaths() []string
	// verify checks the program's whole namespace against the model once
	// the timed run is over.
	verify(t *tally)
	close()
}

// runClients runs n client loops in parallel for d, each with its own
// tally and, when traced, its own recorder, and waits for all of them.
func runClients(n int, d time.Duration, traced bool, loop func(c int, t *tally, rec *recorder, deadline time.Time)) (*tally, []*recorder) {
	tallies := make([]tally, n)
	var recs []*recorder
	epoch := time.Now()
	deadline := epoch.Add(d)
	for c := 0; c < n; c++ {
		tallies[c].setWindows(epoch, d)
		if traced {
			recs = append(recs, newRecorder(c, epoch))
		} else {
			recs = append(recs, nil)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			loop(c, &tallies[c], recs[c], deadline)
		}(c)
	}
	wg.Wait()
	total := &tally{}
	for c := range tallies {
		total.merge(&tallies[c])
	}
	if !traced {
		recs = nil
	}
	return total, recs
}

// deadlineCheckEvery is how many operations a client runs between reads
// of the clock for its deadline.
const deadlineCheckEvery = 32

// closedLoop calls op until deadline has passed or op returns false.
func closedLoop(deadline time.Time, op func() bool) {
	for i := 1; ; i++ {
		if !op() {
			return
		}
		if i%deadlineCheckEvery == 0 && time.Now().After(deadline) {
			return
		}
	}
}

// cacheCounts sums the CacheStats counters the per-layer metrics use.
type cacheCounts struct {
	lookups, slowWalks, components, retries, fsLookups, evictions int64
	bulk, tryFast, fastHits, dlhtMisses, pccMisses, shortcuts     int64
	childHops, deferred, seqBumps, batchShoots, hashedBytes       int64
}

func snapshotStats(systems []*dircache.System) []dircache.CacheStats {
	out := make([]dircache.CacheStats, len(systems))
	for i, s := range systems {
		out[i] = s.Stats()
	}
	return out
}

// sumDelta sums, over systems, the counts since the before snapshots.
func sumDelta(systems []*dircache.System, before []dircache.CacheStats) cacheCounts {
	var c cacheCounts
	for i, s := range systems {
		st := s.Stats().Delta(before[i])
		c.lookups += st.Lookups
		c.slowWalks += st.SlowWalks
		c.components += st.Components
		c.retries += st.RetryWalks
		c.fsLookups += st.FSLookups
		c.evictions += st.Evictions
		c.bulk += st.BulkPopulations
		c.tryFast += st.TryFast
		c.fastHits += st.FastHits
		c.dlhtMisses += st.DLHTMisses
		c.pccMisses += st.PCCMisses
		c.shortcuts += st.ShortcutResumes
		c.childHops += st.ChildHops
		c.deferred += st.Deferred
		c.seqBumps += st.SeqBumps
		c.batchShoots += st.BatchShootdowns
		c.hashedBytes += st.HashedBytes
	}
	return c
}

// slabCounts sums slot occupancy and reclamation over every arena.
type slabCounts struct{ live, limbo, reclaimed int64 }

func sumSlabStats(systems []*dircache.System) slabCounts {
	var c slabCounts
	for _, s := range systems {
		m := s.MemStats()
		for _, a := range []dircache.ArenaStats{m.Dentries, m.ChainNodes, m.FastDentries, m.DLHTNodes} {
			c.live += a.Live
			c.limbo += a.Limbo
			c.reclaimed += int64(a.Reclaimed)
		}
	}
	return c
}

// ratio divides, reading 0 when there is nothing to divide by.
func ratio(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}
