package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dircache"
	"dircache/internal/fsapi"
	"dircache/internal/ninep"
	"dircache/internal/telemetry"
)

// TestServeSmoke is the `make serve-smoke` gate: boot dcserve on an
// ephemeral loopback port with the default deep-tree seed, run the
// in-repo 9P client through attach/walk/stat/readdir/read round trips,
// and assert a clean shutdown.
func TestServeSmoke(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", false, "deep:maven:6", "smoke=4000:4000,4001",
			0, 0, "", 0, 0, false, stop, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("dcserve exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("dcserve did not come up")
	}

	c, err := ninep.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}

	// The seeded tree lives under /srv; list it and walk the spine.
	d, err := root.WalkPath("srv")
	if err != nil {
		t.Fatalf("walk /srv: %v", err)
	}
	if err := d.Open(ninep.ORead); err != nil {
		t.Fatalf("open /srv: %v", err)
	}
	ents, err := d.ReadDir()
	if err != nil {
		t.Fatalf("readdir /srv: %v", err)
	}
	if len(ents) == 0 {
		t.Fatal("seeded tree is empty")
	}
	d.Clunk()

	// Descend to a leaf file (depth-first with backtracking past the
	// generator's empty decoy directories), stat it, and read it back.
	if !findLeaf(t, root, "", 0) {
		t.Fatal("no leaf file reachable from the attach root")
	}

	// A configured -users uname attaches; an unknown one is refused.
	if _, err := c.Attach("smoke", ""); err != nil {
		t.Fatalf("-users uname refused: %v", err)
	}
	if _, err := c.Attach("nobody-configured", ""); err == nil {
		t.Fatal("unknown uname attached")
	}
	c.Close()

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dcserve shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dcserve did not drain on stop")
	}
}

// TestServeTraceSmoke is the end-to-end tracing acceptance gate: a cold
// 14-component walk through the 9P client must flight-record exactly ONE
// stitched client+server trace (client RPC round trip, server Twalk
// dispatch, kernel walk stages with backend lookups), and a warm walk
// below a published ancestor must seed its fastpath scan there, recording
// a shortcut_resume span event carrying the depth it saved — all
// observable over the wire and on /slow + /metrics.json.
func TestServeTraceSmoke(t *testing.T) {
	sysC := make(chan *dircache.System, 1)
	testSysHook = func(s *dircache.System) { sysC <- s }
	defer func() { testSysHook = nil }()

	stop := make(chan struct{})
	ready := make(chan string, 2)
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", false, "none", "", 0, 0,
			"127.0.0.1:0", 1 /* trace every walk */, 1, false, stop, ready)
	}()
	recv := func(what string) string {
		select {
		case s := <-ready:
			return s
		case err := <-done:
			t.Fatalf("dcserve exited before serving: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatalf("dcserve did not deliver %s", what)
		}
		return ""
	}
	addr := recv("9P address")
	maddr := recv("metrics address")
	sys := <-sysC
	tel := sys.Telemetry()
	tel.SetSlowThreshold("", 0) // flight-record every completed trace

	// Seed a 14-component spine in-process: /srv + 12 dirs + leaf.
	spine := "/srv"
	for i := 1; i <= 12; i++ {
		spine += fmt.Sprintf("/d%02d", i)
	}
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll(spine, 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	for _, leaf := range []string{"app.conf", "app.log"} {
		if err := p.WriteFile(spine+"/"+leaf, []byte(leaf), 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}

	c, err := ninep.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if !c.Traced() {
		t.Fatal("dctrace extension not negotiated")
	}
	c.SetTelemetry(tel.Raw())
	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}

	// Cold pass: drop every dentry, then one wire walk to the leaf.
	sys.DropCaches()
	leafA := strings.TrimPrefix(spine, "/") + "/app.conf"
	f, err := root.WalkPath(leafA)
	if err != nil {
		t.Fatalf("cold WalkPath: %v", err)
	}
	f.Clunk()

	traces, _ := tel.Raw().SlowTraces()
	groups := telemetry.StitchTraces(traces)
	var stitched []*telemetry.StitchedTrace
	for i := range groups {
		if hasSpanOrigin(&groups[i], "client") && hasSpanOrigin(&groups[i], "server") {
			stitched = append(stitched, &groups[i])
		}
	}
	if len(stitched) != 1 {
		t.Fatalf("cold walk produced %d stitched client+server traces, want exactly 1", len(stitched))
	}
	var sawRPC, sawBackend bool
	for _, sp := range stitched[0].Spans {
		for _, ev := range sp.Events {
			switch {
			case sp.Origin == "client" && ev.Kind == telemetry.EvRPC:
				sawRPC = true
			case sp.Origin == "server" && (ev.Kind == telemetry.EvFSLookup || ev.Kind == telemetry.EvBulkPopulate):
				sawBackend = true
			}
		}
	}
	if !sawRPC {
		t.Error("cold stitched trace has no client rpc event")
	}
	if !sawBackend {
		t.Error("cold stitched trace's server span shows no backend lookup stage")
	}

	// Warm pass: publish the deepest ancestor (AdmitAfter=2 wants repeat
	// touches), then walk a sibling — its fastpath miss records the
	// published spine dir as the session's resume point.
	for i := 0; i < 3; i++ {
		if _, err := p.Stat(spine); err != nil {
			t.Fatalf("warm stat: %v", err)
		}
		if _, err := p.Stat(spine + "/app.conf"); err != nil {
			t.Fatalf("warm stat leaf: %v", err)
		}
	}
	leafB := strings.TrimPrefix(spine, "/") + "/app.log"
	if f, err := root.WalkPath(leafB); err == nil {
		f.Clunk()
	} else {
		t.Fatalf("warm WalkPath: %v", err)
	}
	// A miss below the published ancestor then seeds its scan at the
	// spine dir instead of hashing 13 components from the root.
	if _, err := root.WalkPath(leafB + "x"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT for missing sibling, got %v", err)
	}

	traces, _ = tel.Raw().SlowTraces()
	depth := -1
	for _, tr := range traces {
		for _, ev := range tr.Events {
			if ev.Kind == telemetry.EvShortcutResume {
				fmt.Sscanf(ev.Detail, "depth=%d", &depth)
			}
		}
	}
	if depth < 1 {
		t.Fatalf("no warm walk recorded a shortcut_resume span event with depth saved (depth=%d)", depth)
	}

	// The same stories must be readable off the ops endpoints.
	slowBody := httpGet(t, "http://"+maddr+"/slow")
	for _, want := range []string{`"origin": "client"`, `"origin": "server"`, telemetry.EvShortcutResume, telemetry.EvRPC} {
		if !strings.Contains(slowBody, want) {
			t.Errorf("/slow output missing %q", want)
		}
	}
	metricsBody := httpGet(t, "http://"+maddr+"/metrics.json")
	if !strings.Contains(metricsBody, `"trace_id"`) {
		t.Error("/metrics.json carries no histogram exemplars (no trace_id in any bucket)")
	}

	p.Exit()
	c.Close()
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dcserve shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dcserve did not drain on stop")
	}
}

func hasSpanOrigin(g *telemetry.StitchedTrace, origin string) bool {
	for _, sp := range g.Spans {
		if sp.Origin == origin {
			return true
		}
	}
	return false
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body)
}

// findLeaf depth-first-searches the exported tree over the wire for a
// regular file, exercising walk/open/readdir/stat/read as it goes.
func findLeaf(t *testing.T, dir *ninep.Fid, path string, depth int) bool {
	t.Helper()
	if depth > 40 {
		return false
	}
	dh, err := dir.Walk() // clone: an open fid cannot walk
	if err != nil {
		t.Fatalf("clone %q: %v", path, err)
	}
	if err := dh.Open(ninep.ORead); err != nil {
		t.Fatalf("open %q: %v", path, err)
	}
	ents, err := dh.ReadDir()
	if err != nil {
		t.Fatalf("readdir %q: %v", path, err)
	}
	dh.Clunk()
	for _, e := range ents {
		if e.Mode&ninep.DMDir != 0 {
			continue
		}
		ff, err := dir.WalkPath(e.Name)
		if err != nil {
			t.Fatalf("walk file %s/%s: %v", path, e.Name, err)
		}
		st, err := ff.Stat()
		if err != nil {
			t.Fatalf("stat %s/%s: %v", path, e.Name, err)
		}
		if err := ff.Open(ninep.ORead); err != nil {
			t.Fatalf("open file: %v", err)
		}
		data, err := ff.ReadAll()
		if err != nil {
			t.Fatalf("read file: %v", err)
		}
		if uint64(len(data)) != st.Length {
			t.Fatalf("read %d bytes of %s/%s, stat says %d", len(data), path, e.Name, st.Length)
		}
		ff.Clunk()
		return true
	}
	for _, e := range ents {
		if e.Mode&ninep.DMDir == 0 {
			continue
		}
		child, err := dir.WalkPath(e.Name)
		if err != nil {
			t.Fatalf("walk %s/%s: %v", path, e.Name, err)
		}
		found := findLeaf(t, child, path+"/"+e.Name, depth+1)
		child.Clunk()
		if found {
			return true
		}
	}
	return false
}

func TestParseUsers(t *testing.T) {
	m, err := parseUsers("alice=1000:1000,10,20;bob=1001")
	if err != nil {
		t.Fatal(err)
	}
	want := dircache.UserCreds(1000, 10, 20)
	got := m["alice"]
	if got.UID != 1000 || got.GID != 1000 || len(got.Groups) != len(want.Groups) {
		t.Fatalf("alice parsed as %+v", got)
	}
	if b := m["bob"]; b.UID != 1001 || b.GID != 1001 {
		t.Fatalf("bob parsed as %+v", b)
	}
	if _, err := parseUsers("broken"); err == nil {
		t.Fatal("accepted entry without =")
	}
}
