package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dircache/internal/fsapi"
)

// TestRouterRoutedRemovalsReachPeers: unlinking a plain file and removing
// an empty directory journal no invalidation event in the kernel, so they
// must still reach peers through the router's own fan-out. Every shard,
// warm on both paths beforehand, answers ENOENT right after the calls
// return, with no Pump or Converge.
func TestRouterRoutedRemovalsReachPeers(t *testing.T) {
	g := newTestGroup(t, 2)
	mkdirs := []string{"/a", "/a/b"}
	for _, d := range mkdirs {
		if err := g.Router.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Router.WriteFile("/a/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	gone := []string{"/a/b", "/a/f"}
	for i, l := range g.Locals {
		for _, p := range gone {
			if _, err := l.Lstat(p); err != nil {
				t.Fatalf("warm shard %d %s: %v", i, p, err)
			}
		}
	}
	if err := g.Router.Rmdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := g.Router.Unlink("/a/f"); err != nil {
		t.Fatal(err)
	}
	for i, l := range g.Locals {
		for _, p := range gone {
			if _, err := l.Lstat(p); fsapi.ToErrno(err) != fsapi.ENOENT {
				t.Errorf("shard %d: Lstat(%s) = %v, want ENOENT", i, p, err)
			}
		}
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit after routed removals: %v", f)
	}
}

// rywProgress is one session's published progress: the index of the
// latest iteration whose create, rename and removal step has returned.
// Names are never reused, so each fact a step establishes is permanent.
type rywProgress struct{ created, renamed, removed atomic.Int64 }

// readYourWrites runs sessions concurrent sessions through r for iters
// iterations each and returns the number of violations seen: stale answers, and mutations a stale view made fail. In
// iteration i, session s works under /ryw/s<s>:
//
//  1. create keep<i> (never removed) and dir d<i> holding file f;
//  2. rename d<i> to m<i>;
//  3. unlink m<i>/f and remove m<i>.
//
// After each step the session stats the affected paths on every shard and
// through the router: the step's effect must show. Between steps it reads
// another session's published progress and checks that progress's
// permanent facts the same way, so a stat that starts after another
// goroutine's mutation returned must see it. It also stats paths whose
// state is changing right now, ignoring the answers, so populations race
// the mutations they must not outlive. No Pump, no Converge.
func readYourWrites(t *testing.T, r *Router, sessions, iters int) int64 {
	t.Helper()
	if err := r.Mkdir("/ryw", 0o755); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sessions; s++ {
		if err := r.Mkdir(fmt.Sprintf("/ryw/s%d", s), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	progress := make([]rywProgress, sessions)
	for i := range progress {
		progress[i].created.Store(-1)
		progress[i].renamed.Store(-1)
		progress[i].removed.Store(-1)
	}
	var violations atomic.Int64
	var firstMu sync.Mutex
	var first string
	report := func(format string, args ...any) {
		if violations.Add(1) == 1 {
			firstMu.Lock()
			first = fmt.Sprintf(format, args...)
			firstMu.Unlock()
		}
	}
	// expect checks path on every shard and through the router.
	expect := func(path string, exists bool) {
		check := func(who string, err error) {
			switch {
			case exists && err != nil:
				report("%s: Lstat(%s) = %v, want it to exist", who, path, err)
			case !exists && fsapi.ToErrno(err) != fsapi.ENOENT:
				report("%s: Lstat(%s) = %v, want ENOENT", who, path, err)
			}
		}
		for j, s := range r.Shards() {
			_, err := s.Lstat(path)
			who := fmt.Sprintf("shard %d", j)
			if pr, ok := s.(Prober); ok {
				dir, _ := splitPath(path)
				who += fmt.Sprintf(" (claims %s, parent %s; parent owner %d)", pr.Claim(path), pr.Claim(dir), r.Owner(dir))
			}
			check(who, err)
		}
		_, err := r.Lstat(path)
		check("router", err)
	}
	// probe stats path on every shard and ignores the answer.
	probe := func(path string) {
		for _, s := range r.Shards() {
			_, _ = s.Lstat(path)
		}
	}
	must := func(err error) bool {
		if err != nil {
			report("mutation failed: %v", err)
			return false
		}
		return true
	}

	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			base := fmt.Sprintf("/ryw/s%d", s)
			other := (s + 1) % sessions
			obase := fmt.Sprintf("/ryw/s%d", other)
			op := &progress[other]
			for i := 0; i < iters; i++ {
				keep := fmt.Sprintf("%s/keep%d", base, i)
				d := fmt.Sprintf("%s/d%d", base, i)
				m := fmt.Sprintf("%s/m%d", base, i)

				// Seed negatives for names about to appear.
				probe(keep)
				probe(d)
				probe(m + "/f")
				if !must(r.WriteFile(keep, nil, 0o644)) || !must(r.Mkdir(d, 0o755)) ||
					!must(r.WriteFile(d+"/f", nil, 0o644)) {
					return
				}
				expect(keep, true)
				expect(d+"/f", true)
				progress[s].created.Store(int64(i))

				// Race the other session's current step.
				if c := op.created.Load(); c >= 0 {
					probe(fmt.Sprintf("%s/d%d/f", obase, c))
					probe(fmt.Sprintf("%s/m%d/f", obase, c))
				}

				if !must(r.Rename(d, m)) {
					return
				}
				expect(d, false)
				expect(d+"/f", false)
				expect(m+"/f", true)
				progress[s].renamed.Store(int64(i))

				if !must(r.Unlink(m+"/f")) || !must(r.Rmdir(m)) {
					return
				}
				expect(m+"/f", false)
				expect(m, false)
				progress[s].removed.Store(int64(i))

				// The other session's published facts are permanent.
				if c := op.created.Load(); c >= 0 {
					expect(fmt.Sprintf("%s/keep%d", obase, c), true)
				}
				if n := op.renamed.Load(); n >= 0 {
					expect(fmt.Sprintf("%s/d%d/f", obase, n), false)
				}
				if n := op.removed.Load(); n >= 0 {
					expect(fmt.Sprintf("%s/m%d", obase, n), false)
				}
			}
		}(s)
	}
	wg.Wait()
	if n := violations.Load(); n > 0 {
		t.Logf("%d violations; first: %s", n, first)
	}
	return violations.Load()
}

// TestRouterReadYourWrites: concurrent sessions on a 4-shard tier never
// see pre-mutation state once a mutation has returned; with the fan-out
// dropped, the same workload must report stale answers.
func TestRouterReadYourWrites(t *testing.T) {
	g := newTestGroup(t, 4)
	if n := readYourWrites(t, g.Router, 4, 40); n != 0 {
		t.Fatalf("%d violations with synchronous invalidation", n)
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit: %v", f)
	}

	dropped := newTestGroup(t, 4)
	dropped.Router.TestDropInvalidations(true)
	if n := readYourWrites(t, dropped.Router, 4, 10); n == 0 {
		t.Fatal("dropped invalidations went unnoticed")
	}
}

// TestWireReadYourWrites: the same contract on the 2-shard wire tier,
// where each peer invalidation is a Tshoot round trip.
func TestWireReadYourWrites(t *testing.T) {
	g := newWireGroup(t, 2)
	if n := readYourWrites(t, g.Router, 3, 15); n != 0 {
		t.Fatalf("%d violations over the wire", n)
	}

	dropped := newWireGroup(t, 2)
	dropped.Router.TestDropInvalidations(true)
	if n := readYourWrites(t, dropped.Router, 3, 5); n == 0 {
		t.Fatal("dropped invalidations went unnoticed over the wire")
	}
}

// TestRouterChurnKeepsInodesBounded: churn through the router (create,
// stat, directory rename, unlink of thousands of distinct files) must not
// grow any shard's inode cache past its dentry cache: an inode whose last
// cached name a peer invalidated is forgotten.
func TestRouterChurnKeepsInodesBounded(t *testing.T) {
	g := newTestGroup(t, 2)
	if err := g.Router.Mkdir("/c", 0o755); err != nil {
		t.Fatal(err)
	}
	dir := "/c/d0"
	if err := g.Router.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		f := fmt.Sprintf("%s/f%d", dir, i)
		if err := g.Router.WriteFile(f, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, l := range g.Locals {
			if _, err := l.Lstat(f); err != nil {
				t.Fatalf("Lstat %s: %v", f, err)
			}
		}
		if i%100 == 99 {
			next := fmt.Sprintf("/c/d%d", i+1)
			if err := g.Router.Rename(dir, next); err != nil {
				t.Fatal(err)
			}
			dir = next
			f = fmt.Sprintf("%s/f%d", dir, i)
		}
		if err := g.Router.Unlink(f); err != nil {
			t.Fatal(err)
		}
	}
	for i, sys := range g.Systems {
		inodes, dents := sys.MemStats().Inodes, sys.DentryCount()
		if inodes > dents+8 {
			t.Errorf("shard %d caches %d inodes for %d dentries", i, inodes, dents)
		}
	}
}
