package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dircache"
	"dircache/internal/fsapi"
	"dircache/internal/ninep"
)

// wire-walk serves local-warm's tree from an in-process 9P server on
// loopback. Each client is one connection under its own uname that waits
// for every reply, as a v9fs mount's blocking system calls do.

var wireUnames = []string{"1000", "1001"}

type wireWalk struct {
	seed    int64
	sys     *dircache.System
	srv     *ninep.Server
	clients []*ninep.Client
	roots   []*ninep.Fid
	tab     *readTable

	// Counts over the last run, for the per-layer metrics.
	rpcs, bytes, errs int64
}

func setupWireWalk(seed int64, _ bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	tab := newReadTable(sourceTree(rng), rng)
	sys := dircache.New(dircache.Optimized())
	root := sys.Start(dircache.RootCreds())
	if err := tab.m.materialize(root); err != nil {
		return nil, err
	}
	// Two in-process touches publish every name to the fastpath; the
	// wire pass below then fills each uname's own PCC.
	for pass := 0; pass < 2; pass++ {
		for _, p := range tab.paths {
			if _, err := root.Stat(p); err != nil {
				return nil, fmt.Errorf("warm-up stat %s: %w", p, err)
			}
		}
	}
	root.Exit()
	srv, err := ninep.Serve(sys, "127.0.0.1:0", ninep.Config{})
	if err != nil {
		return nil, err
	}
	w := &wireWalk{seed: seed, sys: sys, srv: srv, tab: tab}
	for _, uname := range wireUnames {
		c, err := ninep.Dial(srv.Addr().String())
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, c)
		f, err := c.Attach(uname, "/")
		if err != nil {
			w.close()
			return nil, fmt.Errorf("attach %s: %w", uname, err)
		}
		w.roots = append(w.roots, f)
	}
	errs := make([]string, len(w.roots))
	var wg sync.WaitGroup
	for c := range w.roots {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tally{}
			for i := range tab.paths {
				w.present(c, i, t, nil)
			}
			errs[c] = t.failure
		}(c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			w.close()
			return nil, fmt.Errorf("warm-up: %s", e)
		}
	}
	return w, nil
}

func (w *wireWalk) systems() []*dircache.System { return []*dircache.System{w.sys} }
func (w *wireWalk) samplePaths() []string       { return w.tab.samplePaths(w.seed) }
func (w *wireWalk) verify(*tally)               {}

func (w *wireWalk) close() {
	for _, c := range w.clients {
		c.Close()
	}
	w.srv.Close()
}

// present walks to tab.paths[i], stats it and clunks it.
func (w *wireWalk) present(c, i int, t *tally, rec *recorder) {
	path := w.tab.paths[i]
	s := rec.begin(spNinepWalk)
	f, err := w.roots[c].WalkPath(path)
	rec.end(s)
	if err != nil {
		t.fail(fmt.Sprintf("walk %s: %v, model says it exists", path, err))
		return
	}
	s = rec.begin(spNinepStat)
	st, err := f.Stat()
	rec.end(s)
	s = rec.begin(spNinepClunk)
	cerr := f.Clunk()
	rec.end(s)
	if msg := w.tab.checkPresent(i, st.Qid.IsDir(), err); msg != "" {
		t.fail(msg)
	} else if cerr != nil {
		t.fail(fmt.Sprintf("clunk %s: %v", path, cerr))
	}
}

// absent walks to tab.absent[i], which must fail with the model's errno.
// 9P reports a walk that stops part way as a short Rwalk, which carries
// no errno; the client recovers one by walking the failing name alone.
// For a walk through a regular file that recovery fails at this commit,
// so an ENOTDIR walk whose error has no errno is counted, not failed.
// Every other walk must carry the model's errno.
func (w *wireWalk) absent(c, i int, t *tally, rec *recorder) {
	s := rec.begin(spNinepWalk)
	f, err := w.roots[c].WalkPath(w.tab.absent[i])
	rec.end(s)
	var errno fsapi.Errno
	switch {
	case err == nil:
		f.Clunk()
		t.fail(fmt.Sprintf("walk %s: found, model says %v", w.tab.absent[i], w.tab.absentE[i]))
	case w.tab.absentE[i] == dircache.ErrNotDir && !errors.As(err, &errno):
		t.noErrno++
	default:
		if msg := w.tab.checkAbsent(i, err); msg != "" {
			t.fail(msg)
		}
	}
}

// list walks to tab.dirs[i], opens it, reads the listing and clunks it.
func (w *wireWalk) list(c, i int, t *tally, rec *recorder) {
	dir := w.tab.dirs[i]
	s := rec.begin(spNinepWalk)
	f, err := w.roots[c].WalkPath(dir)
	rec.end(s)
	if err != nil {
		t.fail(fmt.Sprintf("walk %s: %v", dir, err))
		return
	}
	defer func() {
		s := rec.begin(spNinepClunk)
		if err := f.Clunk(); err != nil {
			t.fail(fmt.Sprintf("clunk %s: %v", dir, err))
		}
		rec.end(s)
	}()
	s = rec.begin(spNinepOpen)
	err = f.Open(0) // OREAD
	rec.end(s)
	if err != nil {
		t.fail(fmt.Sprintf("open %s: %v", dir, err))
		return
	}
	s = rec.begin(spNinepRead)
	sts, err := f.ReadDir()
	rec.end(s)
	names := make([]string, len(sts))
	for j, st := range sts {
		names[j] = st.Name
	}
	if msg := w.tab.checkList(i, names, err); msg != "" {
		t.fail(msg)
	}
}

func (w *wireWalk) run(d time.Duration, traced bool) (*tally, []*recorder) {
	rpcs0, srv0 := w.clientRPCs(), w.srv.Stats()
	t, recs := runClients(len(w.roots), d, traced, func(c int, t *tally, rec *recorder, deadline time.Time) {
		pk := newPicker(w.tab, w.seed*7919+int64(c)+1)
		closedLoop(deadline, func() bool {
			kind, i := pk.next(w.tab)
			op := rec.begin(spOp)
			t0 := time.Now()
			failed := t.failures
			switch kind {
			case readPresent:
				w.present(c, i, t, rec)
			case readAbsent:
				w.absent(c, i, t, rec)
			default:
				w.list(c, i, t, rec)
			}
			now := t.read(t0)
			rec.end(op)
			t.done(now, t.failures == failed)
			return t.failures == 0
		})
	})
	srv1 := w.srv.Stats()
	w.rpcs = w.clientRPCs() - rpcs0
	w.bytes = srv1.BytesRead + srv1.BytesWritten - srv0.BytesRead - srv0.BytesWritten
	w.errs = srv1.ErrorsSent - srv0.ErrorsSent
	return t, recs
}

func (w *wireWalk) clientRPCs() int64 {
	var n int64
	for _, c := range w.clients {
		n += c.RPCs()
	}
	return n
}

func (w *wireWalk) layerMetrics(out map[string]float64, spans *spanTable, t *tally) {
	out["ninep.walk_rpc_ns"] = spans.meanNs(spNinepWalk)
	out["ninep.stat_rpc_ns"] = spans.meanNs(spNinepStat)
	out["ninep.clunk_rpc_ns"] = spans.meanNs(spNinepClunk)
	out["ninep.rpcs_per_op"] = ratio(w.rpcs, t.attempted)
	out["ninep.bytes_per_op"] = ratio(w.bytes, t.attempted)
	out["ninep.errors_per_op"] = ratio(w.errs, t.attempted)
	paths := w.samplePaths()
	kernel := kernelWalkNs(w.sys, paths)
	out["ninep.kernel_walk_ns"] = kernel
	out["dircache.stat_ns"] = kernel
	if kernel > 0 {
		out["ninep.wire_tax_ratio"] = out["ninep.walk_rpc_ns"] / kernel
	}
	out["ninep.codec_ns_per_msg"] = codecNsPerMsg(paths)
}

// minTimed is how long each standalone timing loop runs at least.
const minTimed = 50 * time.Millisecond

// kernelWalkNs times the walks of paths as in-process Process.Lstat calls
// on the served System, under a credential of its own whose PCC is warmed
// first: the kernel's share of a wire walk.
func kernelWalkNs(sys *dircache.System, paths []string) float64 {
	p := sys.StartAs(dircache.NewIdentity(nonRoot))
	defer p.Exit()
	for _, path := range paths {
		p.Lstat(path)
	}
	n := 0
	t0 := time.Now()
	for time.Since(t0) < minTimed {
		for _, path := range paths {
			p.Lstat(path)
		}
		n += len(paths)
	}
	return float64(time.Since(t0)) / float64(n)
}

// codecNsPerMsg times ninep.Marshal and Unmarshal of the messages a run
// exchanges for paths: Twalk/Rwalk, Tstat/Rstat and Tclunk/Rclunk.
func codecNsPerMsg(paths []string) float64 {
	var msgs []*ninep.Fcall
	for i, path := range paths {
		names := strings.Split(strings.Trim(path, "/"), "/")
		if len(names) > ninep.MaxWalkNames {
			names = names[:ninep.MaxWalkNames]
		}
		qids := make([]ninep.Qid, len(names))
		for j := range qids {
			qids[j] = ninep.Qid{Type: ninep.QTDir, Path: uint64(i*16 + j)}
		}
		st := ninep.Stat{Qid: qids[len(qids)-1], Mode: 0o644, Name: names[len(names)-1], UID: "1000", GID: "1000", MUID: "1000"}
		msgs = append(msgs,
			&ninep.Fcall{Type: ninep.MsgTwalk, Tag: 1, Fid: 1, Newfid: 2, Wname: names},
			&ninep.Fcall{Type: ninep.MsgRwalk, Tag: 1, Wqid: qids},
			&ninep.Fcall{Type: ninep.MsgTstat, Tag: 1, Fid: 2},
			&ninep.Fcall{Type: ninep.MsgRstat, Tag: 1, Stat: st},
			&ninep.Fcall{Type: ninep.MsgTclunk, Tag: 1, Fid: 2},
			&ninep.Fcall{Type: ninep.MsgRclunk, Tag: 1})
	}
	n := 0
	t0 := time.Now()
	for time.Since(t0) < minTimed {
		for _, m := range msgs {
			buf, err := ninep.Marshal(m)
			if err == nil {
				_, err = ninep.Unmarshal(buf[4:]) // past the size prefix
			}
			if err != nil {
				panic(fmt.Sprintf("codec round trip of %s: %v", ninep.MsgName(m.Type), err))
			}
		}
		n += len(msgs)
	}
	return float64(time.Since(t0)) / float64(n)
}
