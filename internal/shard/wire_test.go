package shard

import (
	"fmt"
	"testing"

	"dircache"
	"dircache/internal/fsapi"
	"dircache/internal/ninep"
)

// wireGroup is the over-the-wire deployment: n Systems sharing one
// backend, each behind its own 9P server, fronted by Remote shards.
type wireGroup struct {
	Systems []*dircache.System
	Servers []*ninep.Server
	Remotes []*Remote
	Router  *Router
}

func newWireGroup(t *testing.T, n int) *wireGroup {
	t.Helper()
	backend := dircache.NewMemBackend(dircache.MemOptions{})
	g := &wireGroup{}
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		cfg := dircache.Optimized()
		cfg.SignatureSeed = 0x5eed
		cfg.Root = backend
		sys := dircache.New(cfg)
		srv, err := ninep.Serve(sys, "127.0.0.1:0", ninep.Config{})
		if err != nil {
			t.Fatalf("Serve shard %d: %v", i, err)
		}
		rem, err := DialRemote(srv.Addr().String(), "root")
		if err != nil {
			t.Fatalf("DialRemote shard %d: %v", i, err)
		}
		g.Systems = append(g.Systems, sys)
		g.Servers = append(g.Servers, srv)
		g.Remotes = append(g.Remotes, rem)
		shards = append(shards, rem)
	}
	g.Router = NewRouter(shards, Options{})
	t.Cleanup(func() {
		g.Router.Close()
		for _, srv := range g.Servers {
			srv.Close()
		}
	})
	return g
}

// mkdirs creates each directory through the router, in order.
func mkdirs(t *testing.T, r *Router, dirs ...string) {
	t.Helper()
	for _, d := range dirs {
		if err := r.Mkdir(d, 0o755); err != nil {
			t.Fatalf("Mkdir %s: %v", d, err)
		}
	}
}

// TestWireShardTier: the 2-shard over-the-wire deployment — route ops
// through Remote shards, storm same-directory renames whose peer
// invalidations ride Tshoot, and verify no endpoint serves the old names.
func TestWireShardTier(t *testing.T) {
	g := newWireGroup(t, 2)

	// Build /srv/app{0,1}/lib/pkg{0..3}/file.go through the router.
	var files []string
	mkdirs(t, g.Router, "/srv")
	for a := 0; a < 2; a++ {
		mkdirs(t, g.Router, fmt.Sprintf("/srv/app%d", a), fmt.Sprintf("/srv/app%d/lib", a))
		for p := 0; p < 4; p++ {
			dir := fmt.Sprintf("/srv/app%d/lib/pkg%d", a, p)
			mkdirs(t, g.Router, dir)
			files = append(files, dir+"/file.go")
		}
	}
	for _, f := range files {
		if err := g.Router.WriteFile(f, []byte("package x\n"), 0o644); err != nil {
			t.Fatalf("WriteFile %s: %v", f, err)
		}
	}

	// Warm EVERY endpoint's cache on every path, so each server holds the
	// soon-to-be-stale subtree as walk ancestors.
	for _, rem := range g.Remotes {
		for _, f := range files {
			if _, err := rem.Lstat(f); err != nil {
				t.Fatalf("warm Lstat %s: %v", f, err)
			}
		}
	}

	// Routed reads answer correctly.
	if fi, err := g.Router.Stat(files[0]); err != nil || fi.IsDir() {
		t.Fatalf("Stat %s: %v %v", files[0], fi, err)
	}
	if ents, err := g.Router.ReadDir("/srv/app0/lib/pkg0"); err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
	if data, err := g.Router.ReadFile(files[1]); err != nil || string(data) != "package x\n" {
		t.Fatalf("ReadFile: %q %v", data, err)
	}

	// Rename storm: same-directory renames (the only shape 9P expresses),
	// one per app root, executed through the router.
	for a := 0; a < 2; a++ {
		old := fmt.Sprintf("/srv/app%d", a)
		if err := g.Router.Rename(old, old+"-moved"); err != nil {
			t.Fatalf("Rename %s: %v", old, err)
		}
	}
	pub, applied, _ := g.Router.Stats()
	if pub == 0 || applied != pub {
		t.Fatalf("coherence traffic over the wire: published=%d applied=%d, want equal", pub, applied)
	}

	// Zero stale reads: EVERY endpoint — owner or not — answers ENOENT for
	// the old names and resolves the new ones.
	for ri, rem := range g.Remotes {
		for a := 0; a < 2; a++ {
			old := fmt.Sprintf("/srv/app%d/lib/pkg0/file.go", a)
			niu := fmt.Sprintf("/srv/app%d-moved/lib/pkg0/file.go", a)
			if _, err := rem.Lstat(old); fsapi.ToErrno(err) != fsapi.ENOENT {
				t.Fatalf("stale read on endpoint %d: Lstat(%s) = %v, want ENOENT", ri, old, err)
			}
			if _, err := rem.Lstat(niu); err != nil {
				t.Fatalf("endpoint %d cannot resolve moved path %s: %v", ri, niu, err)
			}
		}
	}

	// Quiescent tier: no fan-out in flight, no findings.
	for i, lag := range g.Router.Lag() {
		if lag != 0 {
			t.Fatalf("shard %d: %d fan-outs in flight with no write running", i, lag)
		}
	}
	if f := g.Router.Audit(nil); len(f) != 0 {
		t.Fatalf("wire audit found: %v", f)
	}
}

// TestWireShootdownFallback: Tshoot with an empty path is the wire leg of
// the fail-closed resync — the endpoint drops everything and re-walks
// from the backend.
func TestWireShootdownFallback(t *testing.T) {
	g := newWireGroup(t, 2)
	mkdirs(t, g.Router, "/srv", "/srv/data")
	if err := g.Router.WriteFile("/srv/data/f.txt", []byte("x"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := g.Remotes[0].Lstat("/srv/data/f.txt"); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if n := g.Remotes[0].InvalidateAll(); n == 0 {
		t.Fatal("InvalidateAll dropped nothing despite a warm cache")
	}
	if _, err := g.Remotes[0].Lstat("/srv/data/f.txt"); err != nil {
		t.Fatalf("Lstat after full shootdown: %v", err)
	}
}
