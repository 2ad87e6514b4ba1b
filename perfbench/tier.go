package main

import (
	"errors"
	"fmt"
	"time"

	"dircache"
	"dircache/internal/shard"
)

// tier-rw is one client session of reads and writes through a Router over
// tierShards in-process shards that share one memfs backend. Nothing in
// the program pumps the shards' journals on its own, so the benchmark is
// the deployment's pump: it calls Router.Pump every pumpEvery client ops.
// Between pumps a shard may answer from a view older than the session's
// own acknowledged writes; those answers are counted as stale, not failed.

const (
	tierShards = 4
	tierTops   = 16
	tierSubs   = 8
	tierFiles  = 20
	// tierCapacity bounds each shard's cache at about 1.5x the ~2.7k-entry
	// tree, so the whole tree fits in every shard while negative entries
	// for long-gone names are evicted and memory stays flat over a run.
	tierCapacity = 4096
	pumpEvery    = 16
	tierWarmOps  = 5000
	tierConverge = 8 // pump rounds Converge may take
)

// churnMixTier is tier-rw's mix: 75% stat, 17% create or unlink and 8%
// directory rename, no scans.
var churnMixTier = churnMix{stat: 75, write: 92, rename: 100}

// timedShard wraps a Shard so a traced run records spans around the
// router's calls into it.
type timedShard struct {
	shard.Shard
	rec *recorder
}

func (s *timedShard) Stat(path string) (dircache.FileInfo, error) {
	id := s.rec.begin(spShardStat)
	fi, err := s.Shard.Stat(path)
	s.rec.end(id)
	return fi, err
}

func (s *timedShard) WriteFile(path string, data []byte, perm uint32) error {
	id := s.rec.begin(spShardWrite)
	err := s.Shard.WriteFile(path, data, perm)
	s.rec.end(id)
	return err
}

func (s *timedShard) Unlink(path string) error {
	id := s.rec.begin(spShardWrite)
	err := s.Shard.Unlink(path)
	s.rec.end(id)
	return err
}

func (s *timedShard) Rename(oldPath, newPath string) error {
	id := s.rec.begin(spShardWrite)
	err := s.Shard.Rename(oldPath, newPath)
	s.rec.end(id)
	return err
}

func (s *timedShard) Invalidate(path string) int {
	id := s.rec.begin(spShardInvalidate)
	n := s.Shard.Invalidate(path)
	s.rec.end(id)
	return n
}

type tierRW struct {
	router *shard.Router
	syss   []*dircache.System
	timed  []*timedShard // nil in untraced runs
	ch     *churner
	pumpN  int // client ops between pumps; 0 withholds them
	since  int // client ops since the last pump

	// Counts over the last run, for the per-layer metrics.
	published, applied, fallbacks uint64
	lagMax                        int
	sampleLag                     bool
}

func setupTierRW(seed int64, traced bool) (instance, error) {
	m := tierTree(tierTops, tierSubs, tierFiles)
	backend := dircache.NewMemBackend(dircache.MemOptions{})
	w := &tierRW{pumpN: pumpEvery}
	var shards []shard.Shard
	for i := 0; i < tierShards; i++ {
		cfg := dircache.Optimized()
		cfg.Root = backend
		cfg.CacheCapacity = tierCapacity
		sys := dircache.New(cfg)
		w.syss = append(w.syss, sys)
		var s shard.Shard = shard.NewLocal(sys)
		if traced {
			ts := &timedShard{Shard: s}
			w.timed = append(w.timed, ts)
			s = ts
		}
		shards = append(shards, s)
	}
	w.router = shard.NewRouter(shards, shard.Options{})
	if err := w.build(m); err != nil {
		w.close()
		return nil, err
	}
	var leaves []*node
	for _, n := range m.entries() {
		if n.dir && len(n.list) > 0 && !n.list[0].dir {
			leaves = append(leaves, n)
		}
	}
	w.ch = newChurner(m, leaves, seed)
	w.ch.fs, w.ch.files, w.ch.mix, w.ch.admitLag = routerFS{w.router}, tierFiles, churnMixTier, true
	w.ch.spans = churnSpans{stat: spRouterStat, write: spRouterWrite} // no scans, so no readDir
	// Warm up: two stats of every path through the router, then the mix.
	t := &tally{}
	for pass := 0; pass < 2; pass++ {
		for _, n := range m.entries() {
			path := n.path()
			fi, err := w.router.Stat(path)
			if msg := compareStat(path, n, nil, fi.IsDir(), err); msg != "" {
				t.fail(msg)
			}
		}
	}
	for i := 0; i < tierWarmOps && t.failures == 0; i++ {
		w.step(t, nil)
	}
	if t.failures > 0 {
		w.close()
		return nil, fmt.Errorf("warm-up: %s", t.failure)
	}
	return w, nil
}

// build creates the tree one depth at a time through the router and
// converges after each depth: a peer whose cached listing of a parent is
// authoritative answers ENOENT for a child another shard has just created
// until the creation is pumped to it.
func (w *tierRW) build(m *model) error {
	level := []*node{m.root}
	for len(level) > 0 {
		var next []*node
		for _, d := range level {
			for _, k := range d.list {
				path := k.path()
				var err error
				if k.dir {
					err = w.router.Mkdir(path, 0o755)
					next = append(next, k)
				} else {
					err = w.router.WriteFile(path, nil, 0o644)
				}
				if err != nil {
					return fmt.Errorf("build %s: %w", path, err)
				}
			}
		}
		if !w.router.Converge(tierConverge) {
			return errors.New("build: shards did not converge")
		}
		level = next
	}
	return nil
}

func (w *tierRW) systems() []*dircache.System { return w.syss }
func (w *tierRW) close()                      { w.router.Close() }

func (w *tierRW) samplePaths() []string { return w.ch.samplePaths() }

func (w *tierRW) run(d time.Duration, traced bool) (*tally, []*recorder) {
	p0, a0, f0 := w.router.Stats()
	w.lagMax, w.sampleLag = 0, traced
	t, recs := runClients(1, d, traced, func(_ int, t *tally, rec *recorder, deadline time.Time) {
		for _, ts := range w.timed {
			ts.rec = rec
		}
		closedLoop(deadline, func() bool { w.step(t, rec); return true })
		for _, ts := range w.timed {
			ts.rec = nil
		}
	})
	p1, a1, f1 := w.router.Stats()
	w.published, w.applied, w.fallbacks = p1-p0, a1-a0, f1-f0
	return t, recs
}

// step runs one operation of the mix, then pumps if pumpN ops have
// passed since the last pump.
func (w *tierRW) step(t *tally, rec *recorder) {
	w.ch.step(t, rec)
	if w.since++; w.since == w.pumpN {
		w.since = 0
		if w.sampleLag {
			for _, l := range w.router.Lag() {
				w.lagMax = max(w.lagMax, l)
			}
		}
		s := rec.begin(spRouterPump)
		w.router.Pump()
		rec.end(s)
	}
}

// verify converges the shards and then checks every path of the model and
// every recently removed one. Convergence should leave no shard with a
// stale view; a lagged answer is counted as stale after converge.
func (w *tierRW) verify(t *tally) {
	if !w.router.Converge(tierConverge) {
		t.fail("verify: shards did not converge")
		return
	}
	w.ch.verify(t)
}

func (w *tierRW) layerMetrics(out map[string]float64, spans *spanTable, t *tally) {
	if n := spans[spRouterStat].count; n > 0 {
		out["shard.route_self_ns"] = float64(spans[spRouterStat].selfNs) / float64(n)
	}
	out["shard.owner_stat_ns"] = spans.meanNs(spShardStat)
	out["dircache.stat_ns"] = spans.meanNs(spShardStat)
	out["shard.pump_ns_per_op"] = ratio(spans[spRouterPump].totalNs, t.attempted)
	out["shard.invalidate_ns"] = spans.meanNs(spShardInvalidate)
	out["shard.published_per_write"] = ratio(int64(w.published), t.writes)
	out["shard.applied_per_write"] = ratio(int64(w.applied), t.writes)
	out["shard.fallbacks"] = float64(w.fallbacks)
	out["shard.lag_max"] = float64(w.lagMax)
	out["shard.stale_after_converge"] = float64(t.staleConverged)
}
