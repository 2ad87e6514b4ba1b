package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dircache"
)

// nonRoot is the credential of local-warm's clients and of wire-walk's
// in-process comparison walks.
var nonRoot = dircache.UserCreds(1000, 1000)

// Every Zipf pick draws rank k with weight (zipfV+k)^-zipfS. The offset
// flattens the head: over local-warm's paths the hottest takes about 1% of
// picks and the hottest hundred about a third, so no single path's depth
// sets a run's latency.
const (
	zipfS = 1.1
	zipfV = 20
)

// readTable is a read-only tree flattened into the arrays the read loops
// of local-warm and wire-walk pick from, with the answer each pick must
// get.
type readTable struct {
	m        *model
	paths    []string // every entry, in a seed-shuffled Zipf rank order
	isDir    []bool
	absent   []string   // paths that must not resolve
	absentE  []error    // ENOENT or ENOTDIR, as each must fail
	dirs     []string   // every directory, in a seed-shuffled Zipf rank order
	dirNames [][]string // each directory's names, sorted
}

func newReadTable(m *model, rng *rand.Rand) *readTable {
	t := &readTable{m: m}
	ents := m.entries()
	rng.Shuffle(len(ents), func(i, j int) { ents[i], ents[j] = ents[j], ents[i] })
	for _, n := range ents {
		t.paths = append(t.paths, n.path())
		t.isDir = append(t.isDir, n.dir)
		if n.dir {
			t.dirs = append(t.dirs, n.path())
			t.dirNames = append(t.dirNames, n.sortedNames())
		}
	}
	// Half the absent names miss inside a directory (ENOENT), half walk
	// through a regular file (ENOTDIR).
	for i := 0; i < 4096; i++ {
		if i%2 == 0 {
			d := t.dirs[rng.Intn(len(t.dirs))]
			t.absent = append(t.absent, fmt.Sprintf("%s/missing%d", d, i))
			t.absentE = append(t.absentE, dircache.ErrNotExist)
			continue
		}
		n := ents[rng.Intn(len(ents))]
		for n.dir {
			n = ents[rng.Intn(len(ents))]
		}
		t.absent = append(t.absent, n.path()+"/sub")
		t.absentE = append(t.absentE, dircache.ErrNotDir)
	}
	return t
}

// picker draws one client's reads: 85% a present path by Zipf rank, 10%
// an absent one, 5% a directory listing by Zipf rank.
type picker struct {
	rng        *rand.Rand
	paths, dir *rand.Zipf
}

type readKind int

const (
	readPresent readKind = iota
	readAbsent
	readList
)

func newPicker(t *readTable, seed int64) *picker {
	rng := rand.New(rand.NewSource(seed))
	return &picker{
		rng:   rng,
		paths: rand.NewZipf(rng, zipfS, zipfV, uint64(len(t.paths)-1)),
		dir:   rand.NewZipf(rng, zipfS, zipfV, uint64(len(t.dirs)-1)),
	}
}

func (p *picker) next(t *readTable) (readKind, int) {
	switch r := p.rng.Intn(100); {
	case r < 85:
		return readPresent, int(p.paths.Uint64())
	case r < 95:
		return readAbsent, p.rng.Intn(len(t.absent))
	default:
		return readList, int(p.dir.Uint64())
	}
}

func (t *readTable) samplePaths(seed int64) []string {
	p := newPicker(t, seed)
	out := make([]string, 0, 4096)
	for len(out) < cap(out) {
		switch k, i := p.next(t); k {
		case readPresent:
			out = append(out, t.paths[i])
		case readAbsent:
			out = append(out, t.absent[i])
		default:
			out = append(out, t.dirs[i])
		}
	}
	return out
}

// checkPresent checks a stat of t.paths[i].
func (t *readTable) checkPresent(i int, isDir bool, err error) string {
	if err != nil {
		return fmt.Sprintf("stat %s: %v, model says it exists", t.paths[i], err)
	}
	if isDir != t.isDir[i] {
		return fmt.Sprintf("stat %s: dir=%v, model says dir=%v", t.paths[i], isDir, t.isDir[i])
	}
	return ""
}

// checkAbsent checks a stat of t.absent[i].
func (t *readTable) checkAbsent(i int, err error) string {
	if !errors.Is(err, t.absentE[i]) {
		return fmt.Sprintf("stat %s: %v, model says %v", t.absent[i], err, t.absentE[i])
	}
	return ""
}

// checkList checks a listing of t.dirs[i].
func (t *readTable) checkList(i int, names []string, err error) string {
	if err != nil {
		return fmt.Sprintf("readdir %s: %v", t.dirs[i], err)
	}
	return checkNames(t.dirs[i], t.dirNames[i], names)
}

// ---- local-warm ----

// warmClients is local-warm's client count: one per core of the 2-core
// machine the bounds were set on.
const warmClients = 2

type localWarm struct {
	seed  int64
	sys   *dircache.System
	procs []*dircache.Process
	tab   *readTable
}

func setupLocalWarm(seed int64, _ bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	tab := newReadTable(sourceTree(rng), rng)
	sys := dircache.New(dircache.Optimized())
	if err := tab.m.materialize(sys.Start(dircache.RootCreds())); err != nil {
		return nil, err
	}
	w := &localWarm{seed: seed, sys: sys, tab: tab}
	id := dircache.NewIdentity(nonRoot) // one credential, so one shared PCC
	for c := 0; c < warmClients; c++ {
		w.procs = append(w.procs, sys.StartAs(id))
	}
	// Warm up: two touches of every name publish it to the fastpath.
	t := &tally{}
	for pass := 0; pass < 2; pass++ {
		for c := range w.procs {
			w.readAll(c, t)
		}
	}
	if t.failures > 0 {
		return nil, fmt.Errorf("warm-up: %s", t.failure)
	}
	return w, nil
}

// readAll stats every present and absent path and lists every directory.
func (w *localWarm) readAll(c int, t *tally) {
	p := w.procs[c]
	for i := range w.tab.paths {
		fi, err := p.Stat(w.tab.paths[i])
		if msg := w.tab.checkPresent(i, fi.IsDir(), err); msg != "" {
			t.fail(msg)
		}
	}
	for i := range w.tab.absent {
		_, err := p.Stat(w.tab.absent[i])
		if msg := w.tab.checkAbsent(i, err); msg != "" {
			t.fail(msg)
		}
	}
	for i := range w.tab.dirs {
		ents, err := p.ReadDir(w.tab.dirs[i])
		if msg := w.tab.checkList(i, entryNames(ents), err); msg != "" {
			t.fail(msg)
		}
	}
}

func entryNames(ents []dircache.DirEntry) []string {
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name
	}
	return out
}

func (w *localWarm) systems() []*dircache.System { return []*dircache.System{w.sys} }
func (w *localWarm) samplePaths() []string       { return w.tab.samplePaths(w.seed) }
func (w *localWarm) verify(*tally)               {}
func (w *localWarm) close() {
	for _, p := range w.procs {
		p.Exit()
	}
}

func (w *localWarm) run(d time.Duration, traced bool) (*tally, []*recorder) {
	return runClients(warmClients, d, traced, func(c int, t *tally, rec *recorder, deadline time.Time) {
		p, tab := w.procs[c], w.tab
		pk := newPicker(tab, w.seed*7919+int64(c)+1)
		closedLoop(deadline, func() bool {
			kind, i := pk.next(tab)
			op := rec.begin(spOp)
			t0 := time.Now()
			var msg string
			switch kind {
			case readPresent:
				s := rec.begin(spDircacheStat)
				fi, err := p.Stat(tab.paths[i])
				rec.end(s)
				msg = tab.checkPresent(i, fi.IsDir(), err)
			case readAbsent:
				s := rec.begin(spDircacheStat)
				_, err := p.Stat(tab.absent[i])
				rec.end(s)
				msg = tab.checkAbsent(i, err)
			default:
				s := rec.begin(spDircacheReadDir)
				ents, err := p.ReadDir(tab.dirs[i])
				rec.end(s)
				msg = tab.checkList(i, entryNames(ents), err)
			}
			now := t.read(t0)
			rec.end(op)
			t.done(now, msg == "")
			if msg != "" {
				t.fail(msg)
				return false
			}
			return true
		})
	})
}

func (w *localWarm) layerMetrics(out map[string]float64, spans *spanTable, t *tally) {
	out["dircache.stat_ns"] = spans.meanNs(spDircacheStat)
}

// ---- local-churn ----

const (
	churnDirs     = 500
	churnFiles    = 40
	churnCapacity = 5000 // a quarter of the ~20k-entry tree
	churnWarmOps  = 20000
)

// churnMixLocal is local-churn's mix: 70% stat, 18% create or unlink, 5%
// directory rename and 7% scan.
var churnMixLocal = churnMix{stat: 70, write: 88, rename: 93}

type localChurn struct {
	sys *dircache.System
	p   *dircache.Process
	ch  *churner
}

func setupLocalChurn(seed int64, _ bool) (instance, error) {
	m := churnTree(churnDirs, churnFiles)
	cfg := dircache.Optimized()
	cfg.CacheCapacity = churnCapacity
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	if err := m.materialize(p); err != nil {
		return nil, err
	}
	base, _ := m.lookup("/c")
	ch := newChurner(m, append([]*node(nil), base.list...), seed)
	ch.fs, ch.files, ch.mix = processFS{p}, churnFiles, churnMixLocal
	ch.spans = churnSpans{stat: spDircacheStat, readDir: spDircacheReadDir, write: spDircacheWrite}
	t := &tally{}
	for i := 0; i < churnWarmOps && t.failures == 0; i++ {
		ch.step(t, nil)
	}
	if t.failures > 0 {
		return nil, fmt.Errorf("warm-up: %s", t.failure)
	}
	return &localChurn{sys: sys, p: p, ch: ch}, nil
}

func (w *localChurn) systems() []*dircache.System { return []*dircache.System{w.sys} }
func (w *localChurn) samplePaths() []string       { return w.ch.samplePaths() }
func (w *localChurn) verify(t *tally)             { w.ch.verify(t) }
func (w *localChurn) close()                      { w.p.Exit() }

func (w *localChurn) run(d time.Duration, traced bool) (*tally, []*recorder) {
	return runClients(1, d, traced, func(_ int, t *tally, rec *recorder, deadline time.Time) {
		closedLoop(deadline, func() bool { return w.ch.step(t, rec) })
	})
}

func (w *localChurn) layerMetrics(out map[string]float64, spans *spanTable, t *tally) {
	out["dircache.stat_ns"] = spans.meanNs(spDircacheStat)
}
