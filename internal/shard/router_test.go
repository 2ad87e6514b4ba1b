package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dircache"
	"dircache/internal/fsapi"
)

// buildTree populates /srv/app{0..apps-1}/lib/pkg{0..pkgs-1}/file.go
// through the router, parents before children, and returns every file
// path. No Pump or Converge: each routed mutation has invalidated its
// peers by the time it returns.
func buildTree(t testing.TB, g *Group, apps, pkgs int) []string {
	t.Helper()
	mkdir := func(dir string) {
		if err := g.Router.Mkdir(dir, 0o755); err != nil && fsapi.ToErrno(err) != fsapi.EEXIST {
			t.Fatalf("Mkdir %s: %v", dir, err)
		}
	}
	var files []string
	mkdir("/srv")
	for a := 0; a < apps; a++ {
		mkdir(fmt.Sprintf("/srv/app%d", a))
		mkdir(fmt.Sprintf("/srv/app%d/lib", a))
		for p := 0; p < pkgs; p++ {
			dir := fmt.Sprintf("/srv/app%d/lib/pkg%d", a, p)
			mkdir(dir)
			files = append(files, dir+"/file.go")
		}
	}
	for _, f := range files {
		if err := g.Router.WriteFile(f, []byte("package x\n"), 0o644); err != nil {
			t.Fatalf("WriteFile %s: %v", f, err)
		}
	}
	return files
}

func warm(t testing.TB, g *Group, files []string) {
	t.Helper()
	for _, f := range files {
		if _, err := g.Router.Lstat(f); err != nil {
			t.Fatalf("warm Lstat %s: %v", f, err)
		}
	}
}

func newTestGroup(t testing.TB, n int) *Group {
	t.Helper()
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 0x5eed
	g := NewLocalGroup(n, cfg, Options{})
	t.Cleanup(func() { g.Close() })
	return g
}

// TestRouterRoutesAndServes: routed metadata ops answer correctly across
// 4 shards sharing one backend.
func TestRouterRoutesAndServes(t *testing.T) {
	g := newTestGroup(t, 4)
	files := buildTree(t, g, 4, 8)
	warm(t, g, files)
	// Spot checks: stat, readdir colocation, readfile.
	fi, err := g.Router.Stat(files[0])
	if err != nil || fi.IsDir() {
		t.Fatalf("Stat %s: %v %v", files[0], fi, err)
	}
	ents, err := g.Router.ReadDir("/srv/app0/lib/pkg0")
	if err != nil || len(ents) != 1 || ents[0].Name != "file.go" {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
	data, err := g.Router.ReadFile(files[1])
	if err != nil || string(data) != "package x\n" {
		t.Fatalf("ReadFile: %q %v", data, err)
	}
	// All four shards participate.
	owners := map[int]bool{}
	for _, f := range files {
		owners[g.Router.Owner(f)] = true
	}
	if len(owners) != 4 {
		t.Fatalf("only %d of 4 shards own keys", len(owners))
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("clean tier audit found: %v", f)
	}
}

// TestRouterRenameCoherence: a cross-shard rename storm leaves zero stale
// reads — peers that cached the moved prefix (as walk ancestors) drop it
// before each Rename returns, and the old path answers ENOENT everywhere
// afterwards.
func TestRouterRenameCoherence(t *testing.T) {
	g := newTestGroup(t, 4)
	files := buildTree(t, g, 4, 8)
	warm(t, g, files)

	// Rename each app root to a new name: every non-executing shard
	// cached the subtree and must drop it before Rename returns.
	for a := 0; a < 4; a++ {
		old := fmt.Sprintf("/srv/app%d", a)
		niu := fmt.Sprintf("/srv/app%d-moved", a)
		if err := g.Router.Rename(old, niu); err != nil {
			t.Fatalf("Rename %s: %v", old, err)
		}
	}
	pub, applied, _ := g.Router.Stats()
	if pub == 0 || applied != 3*pub {
		t.Fatalf("coherence traffic: published=%d applied=%d, want applied = 3*published", pub, applied)
	}
	// Old paths gone, new paths present, through every route.
	for a := 0; a < 4; a++ {
		old := fmt.Sprintf("/srv/app%d/lib/pkg0/file.go", a)
		niu := fmt.Sprintf("/srv/app%d-moved/lib/pkg0/file.go", a)
		if _, err := g.Router.Lstat(old); err == nil {
			t.Fatalf("stale read: %s still resolves after rename", old)
		}
		if _, err := g.Router.Lstat(niu); err != nil {
			t.Fatalf("moved path %s unreachable: %v", niu, err)
		}
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("post-storm audit found: %v", f)
	}
}

// TestRouterInjectedBugCaught: with the drop-the-invalidation bug
// injected, the cross-shard audit MUST report stale claims — proving the
// check has teeth.
func TestRouterInjectedBugCaught(t *testing.T) {
	g := newTestGroup(t, 4)
	files := buildTree(t, g, 4, 8)
	warm(t, g, files)
	g.Router.TestDropInvalidations(true)
	for a := 0; a < 4; a++ {
		old := fmt.Sprintf("/srv/app%d", a)
		if err := g.Router.Rename(old, old+"-moved"); err != nil {
			t.Fatalf("Rename: %v", err)
		}
	}
	findings := g.Audit()
	stale := 0
	for _, f := range findings {
		if f.Check == "cross_shard_stale" {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("injected drop-the-invalidation bug not caught; findings: %v", findings)
	}
	// Repair: turn the fan-out back on, resync every shard, and the audit
	// must come back clean.
	g.Router.TestDropInvalidations(false)
	for _, l := range g.Locals {
		l.InvalidateAll()
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit still dirty after repair: %v", f)
	}
}

// TestRouterRenameVsWalkRace: renames on one shard race walks routed to
// every shard; once the storm stops, the cross-shard audit is clean with
// no Converge. Run under -race by make shard-smoke.
func TestRouterRenameVsWalkRace(t *testing.T) {
	g := newTestGroup(t, 4)
	files := buildTree(t, g, 4, 6)
	warm(t, g, files)

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Renamer: bounces /srv/app1 back and forth.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				_ = g.Router.Rename("/srv/app1", "/srv/app1-x")
			} else {
				_ = g.Router.Rename("/srv/app1-x", "/srv/app1")
			}
		}
	}()
	// Walkers: stat paths under both names via the router; either answer
	// (hit or ENOENT) is legal mid-storm.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := fmt.Sprintf("/srv/app1/lib/pkg%d/file.go", i%6)
				if i%2 == 1 {
					p = fmt.Sprintf("/srv/app1-x/lib/pkg%d/file.go", i%6)
				}
				_, _ = g.Router.Lstat(p)
			}
		}(w)
	}
	for i := 0; i < 400; i++ {
		_, _ = g.Router.Lstat(files[i%len(files)])
	}
	stop.Store(true)
	wg.Wait()

	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit after racing storm: %v", f)
	}
	// The bounced subtree is reachable under exactly one of its names.
	_, errA := g.Router.Lstat("/srv/app1/lib/pkg0/file.go")
	_, errB := g.Router.Lstat("/srv/app1-x/lib/pkg0/file.go")
	if (errA == nil) == (errB == nil) {
		t.Fatalf("subtree reachable under %v names (errA=%v errB=%v)",
			map[bool]string{true: "both", false: "neither"}[errA == nil], errA, errB)
	}
}
