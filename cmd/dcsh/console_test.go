package main

import (
	"testing"
	"time"

	"dircache"
	"dircache/internal/shard"
)

// TestConsoleCommands smoke-tests the ops console against a live traced
// kernel: 'top' must render rate windows without telemetry being nil-safe
// by accident, and 'slow' must dump the flight recorder once a traced
// walk qualifies.
func TestConsoleCommands(t *testing.T) {
	cfg := dircache.Optimized()
	cfg.Telemetry = dircache.TelemetryOptions{Enabled: true, TraceSample: 1}
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	sys.Telemetry().SetSlowThreshold("", 0) // flight-record everything

	if err := p.MkdirAll("/a/b/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/a/b/c/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := p.Stat("/a/b/c/f"); err != nil {
			t.Fatal(err)
		}
	}

	old := topInterval
	topInterval = time.Millisecond
	defer func() { topInterval = old }()
	if err := runCommand(sys, p, []string{"top", "2"}); err != nil {
		t.Fatalf("top: %v", err)
	}
	if err := runCommand(sys, p, []string{"slow"}); err != nil {
		t.Fatalf("slow: %v", err)
	}
	if n, _ := sys.Telemetry().SlowTraces(); len(n) == 0 {
		t.Fatal("no flight-recorded traces after traced walks at threshold 0")
	}

	// Without telemetry both commands refuse instead of crashing.
	bare := dircache.New(dircache.Optimized())
	bp := bare.Start(dircache.RootCreds())
	defer bp.Exit()
	if err := runCommand(bare, bp, []string{"top"}); err == nil {
		t.Fatal("top on a telemetry-less kernel did not refuse")
	}
	if err := runCommand(bare, bp, []string{"slow"}); err == nil {
		t.Fatal("slow on a telemetry-less kernel did not refuse")
	}
}

// TestConsoleSharded drives 'top' and 'resync' with a live sharded tier:
// routed writes reach every shard without help, top must sample and
// render every shard (not just shard 0), and resync must let peers see a
// write the shell made straight to shard 0.
func TestConsoleSharded(t *testing.T) {
	cfg := dircache.Optimized()
	cfg.Telemetry.Enabled = true // as main does for -shards
	g := shard.NewLocalGroup(3, cfg, shard.Options{})
	defer g.Close()
	shardSystems = g.Systems
	shardRouter = g.Router
	defer func() { shardSystems, shardRouter = nil, nil }()

	sys := g.Systems[0]
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	for _, dir := range []string{"/srv", "/srv/a"} {
		if err := g.Router.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range g.Locals {
		if _, err := l.Lstat("/srv/a"); err != nil {
			t.Fatalf("shard %d: routed mkdir not visible: %v", i, err)
		}
	}

	old := topInterval
	topInterval = time.Millisecond
	defer func() { topInterval = old }()
	if err := runCommand(sys, p, []string{"top", "1"}); err != nil {
		t.Fatalf("sharded top: %v", err)
	}
	shot := topSnapshot(topSystems(sys))
	if got := len(shot.shards); got != 3 {
		t.Fatalf("top sampled %d shards, want 3", got)
	}
	for i, lag := range shot.lag {
		if lag != 0 {
			t.Fatalf("shard %d: %d fan-outs in flight with no write running", i, lag)
		}
	}

	// A direct write to shard 0 bypasses the router: shard 1 keeps its
	// cached negative until resync.
	if _, err := g.Locals[1].Lstat("/srv/b"); err == nil {
		t.Fatal("/srv/b exists before the shell made it")
	}
	if err := runCommand(sys, p, []string{"mkdir", "/srv/b"}); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := runCommand(sys, p, []string{"resync"}); err != nil {
		t.Fatalf("resync: %v", err)
	}
	for i, l := range g.Locals {
		if _, err := l.Lstat("/srv/b"); err != nil {
			t.Fatalf("shard %d: direct write not visible after resync: %v", i, err)
		}
	}
}

// TestConsolePumpUnsharded: resync refuses cleanly without a tier.
func TestConsolePumpUnsharded(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	if err := runCommand(sys, p, []string{"resync"}); err == nil {
		t.Fatal("resync without -shards did not refuse")
	}
}
