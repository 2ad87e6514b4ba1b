package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dircache/internal/audit"
	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/vfs"
)

func TestExtendsPrefix(t *testing.T) {
	cases := []struct {
		path, prefix string
		want         bool
	}{
		{"/a/b/c", "/a/b", true},
		{"/a/b/c", "/a", true},
		{"/a/b", "/a/b", false},    // nothing left to walk
		{"/a/bb/c", "/a/b", false}, // component-boundary mismatch
		{"/a/b/", "/a/b", false},   // only slashes remain
		{"/a/b///", "/a/b", false},
		{"/a/b/c", "", false}, // empty prefix never extends
		{"/x/y", "/a", false},
		{"/a/b/c/d", "/a/b/c", true},
	}
	for _, c := range cases {
		if got := extendsPrefix(c.path, c.prefix); got != c.want {
			t.Errorf("extendsPrefix(%q, %q) = %v, want %v", c.path, c.prefix, got, c.want)
		}
	}
}

// warmShortcutAncestors publishes /secret and /secret/team into the DLHT
// (each needs AdmitAfter touches as a walk terminal) and walks through
// them so root's PCC covers both — the two preconditions a resume point
// needs.
func warmShortcutAncestors(t *testing.T, root *vfs.Task) {
	t.Helper()
	if err := root.Mkdir("/secret", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := root.Mkdir("/secret/team", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Create("/secret/team/file", 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, p := range []string{"/secret", "/secret/team", "/secret/team/file"} {
			if _, err := root.Stat(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShortcutResumeHealthy drives the intended path of DESIGN §5f: once
// an ancestor is published and the credential's PCC covers it, a miss
// below it records the ancestor as the task's resume point, and the next
// lookup below it seeds its fastpath scan there instead of hashing from
// the walk start. The auditor's shortcut_state recompute of the memoized
// state the seed trusts must pass.
func TestShortcutResumeHealthy(t *testing.T) {
	_, c, root := auditFixture(t)
	warmShortcutAncestors(t, root)

	// The first miss records the resume point; the second consumes it.
	if _, err := root.Stat("/secret/team/nope"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT, got %v", err)
	}
	s0 := c.Stats()
	if _, err := root.Stat("/secret/team/nope2"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT, got %v", err)
	}
	d := c.Stats()
	if d.ShortcutResumes-s0.ShortcutResumes == 0 {
		t.Fatal("miss under a published, PCC-covered ancestor did not seed from it")
	}
	if saved := d.ShortcutDepthSaved - s0.ShortcutDepthSaved; saved < 2 {
		t.Fatalf("seed at /secret/team should skip >= 2 components, saved %d", saved)
	}
	if d.HashedBytes == 0 {
		t.Fatal("hashed-bytes accounting never ticked")
	}

	findings, checked := c.AuditFindings(16)
	if checked["shortcut_state"] == 0 {
		t.Fatal("auditor never recomputed a memoized state")
	}
	for _, f := range findings {
		if f.Check == "shortcut_state" {
			t.Fatalf("healthy resume flagged: %+v", f)
		}
	}
}

// TestShortcutResumeIsolatedParent publishes only the target's parent —
// none of the intermediates above it — and expects a lookup below it to
// seed there anyway. Admission routinely creates exactly this shape (a
// hot directory whose ancestors were only ever walked through, never
// looked up), and a pure binary descent would miss the isolated entry:
// its first mid-depth probe fails and the search never reaches the
// parent. The parent-first probe in noteShortcut is what this pins down.
func TestShortcutResumeIsolatedParent(t *testing.T) {
	_, c, root := auditFixture(t)
	for _, p := range []string{"/x", "/x/b", "/x/b/c", "/x/b/c/d", "/x/b/c/d/e", "/x/b/c/d/e/f"} {
		if err := root.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Publish the deep parent only (AdmitAfter touches as a walk target).
	for i := 0; i < 3; i++ {
		if _, err := root.Stat("/x/b/c/d/e/f"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := root.Stat("/x/b/c/d/e/f/nope"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT, got %v", err)
	}
	s0 := c.Stats()
	if _, err := root.Stat("/x/b/c/d/e/f/nope2"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT, got %v", err)
	}
	d := c.Stats()
	if d.ShortcutResumes-s0.ShortcutResumes == 0 {
		t.Fatal("miss under an isolated published parent did not seed from it")
	}
	if saved := d.ShortcutDepthSaved - s0.ShortcutDepthSaved; saved < 6 {
		t.Fatalf("seed at /x/b/c/d/e/f should skip >= 6 components, saved %d", saved)
	}
}

// TestAuditCatchesShortcutWithoutPrefixCoverage injects the bug the
// resume point's PCC-coverage check exists for: a point accepted without
// coverage of the skipped prefix. An unprivileged task's first walk to
// an unpublished sibling under a 0700 directory is denied by the slow
// walk but records the point; its second walk seeds there, and the
// child hop answers from the parent's cached children — past the
// directory it may not search. Healthy code denies both walks.
func TestAuditCatchesShortcutWithoutPrefixCoverage(t *testing.T) {
	k, c, root := auditFixture(t)
	warmShortcutAncestors(t, root)
	// Cached under /secret/team but never published: the DLHT probe
	// misses, so only the seeded scan's child hop can answer it.
	const sibling = "/secret/team/sibling"
	if err := root.Create(sibling, 0o644); err != nil {
		t.Fatal(err)
	}

	u := k.NewTask(cred.New(1000, 1000, nil, ""))
	// Healthy behaviour: /secret is 0700 root-only, so u is stopped there.
	for i := 0; i < 2; i++ {
		if _, err := u.Stat(sibling); !errors.Is(err, fsapi.EACCES) {
			t.Fatalf("walk %d: want EACCES for unprivileged task, got %v", i, err)
		}
	}
	if r := audit.New(k, c).RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit dirty before injection: %s", r.Summary())
	}

	c.testSkipShortcutPCC = true
	defer func() { c.testSkipShortcutPCC = false }()
	if _, err := u.Stat(sibling); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("first walk: the slow walk must still deny, got %v", err)
	}
	s0 := c.Stats()
	if _, err := u.Stat(sibling); err != nil {
		// The injected bug must actually leak for the coverage check to
		// be what stops it.
		t.Fatalf("injected skip-PCC seed did not leak, got %v", err)
	}
	if d := c.Stats(); d.ShortcutResumes == s0.ShortcutResumes || d.ChildHops == s0.ChildHops {
		t.Fatalf("leak did not come from a seeded child hop: resumes +%d, hops +%d",
			d.ShortcutResumes-s0.ShortcutResumes, d.ChildHops-s0.ChildHops)
	}
}

// TestShortcutCursorSpillBeyondInlineStack walks paths deeper than the
// cursor's 24-frame inline stack through both consumers of pathCursor —
// the TryFast scan and the population-side lexical hash — and confirms
// the spill path publishes and fast-hits exactly like shallow paths.
func TestShortcutCursorSpillBeyondInlineStack(t *testing.T) {
	k, c, root := auditFixture(t)

	var b strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "/d%02d", i)
		if err := root.Mkdir(b.String(), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	deep := b.String() + "/leaf"
	if err := root.Create(deep, 0o644); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if _, err := root.Stat(deep); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Populations == 0 {
		t.Fatal("deep path never admitted: lexicalHash spill failed")
	}
	before := k.Stats().FastHits
	if _, err := root.Stat(deep); err != nil {
		t.Fatal(err)
	}
	if k.Stats().FastHits == before {
		t.Fatal("31-component path never fast-hits: scan spill failed")
	}
	if _, checked := c.AuditFindings(8); checked["dlht_sig"] == 0 {
		t.Fatal("audit never recomputed the deep signature")
	}
	if findings, _ := c.AuditFindings(8); len(findings) != 0 {
		t.Fatalf("audit dirty after deep-path spill: %+v", findings)
	}
}

// TestShortcutResumeInvariantUnderShootdowns races deep resuming walks
// against chmod churn and batched rename shootdowns over the spine the
// resume points live on. Shootdowns must kill resume points exactly like
// DLHT hits: no walk may observe a pre-rename path as present, and the
// auditor (including shortcut_state) must be clean
// once the storm quiesces.
func TestShortcutResumeInvariantUnderShootdowns(t *testing.T) {
	k, c, root := auditFixture(t)

	var b strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "/s%02d", i)
		if err := root.Mkdir(b.String(), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	spine := b.String()
	for i := 0; i < 8; i++ {
		if err := root.Create(fmt.Sprintf("%s/f%d", spine, i), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	iters := 1500
	if testing.Short() {
		iters = 150
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			task := k.NewTask(cred.Root())
			for i := 0; i < iters; i++ {
				// Present and missing leaves under the deep spine; both
				// ENOENT (mid-rename window) and success are legal, any
				// other errno is not.
				if _, err := task.Stat(fmt.Sprintf("%s/f%d", spine, (seed+i)%8)); err != nil && !errors.Is(err, fsapi.ENOENT) {
					panic(fmt.Sprintf("deep stat: %v", err))
				}
				if _, err := task.Stat(spine + "/absent"); err != nil && !errors.Is(err, fsapi.ENOENT) {
					panic(fmt.Sprintf("deep negative stat: %v", err))
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		task := k.NewTask(cred.Root())
		for i := 0; i < iters; i++ {
			// Batched shootdown over the whole spine, then restore.
			if err := task.Rename("/s00", "/moved"); err == nil {
				task.Rename("/moved", "/s00")
			}
			task.Chmod("/s00/s01", fsapi.Mode(0o755))
			if i%8 == 0 {
				k.Shrink(8)
			}
		}
	}()
	wg.Wait()

	// Quiesced: the old location must be walkable again end to end.
	if _, err := root.Stat(spine + "/f0"); err != nil {
		t.Fatalf("stable deep path lost after storm: %v", err)
	}
	if r := audit.New(k, c).RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit dirty after shootdown storm: %s", r.Summary())
	}
}

// TestChildHopCountsNegativeOnce pins the child hop's metering: an
// ENOENT it answers — from a cached negative child or from a complete
// parent lacking the name — is one negative answer, so NegativeHits +
// FastNegHits + CompleteShort move by exactly 1 per lookup.
func TestChildHopCountsNegativeOnce(t *testing.T) {
	k, c, root := auditFixture(t)
	warmShortcutAncestors(t, root)
	// Records /secret/team as the resume point and leaves a negative
	// child "nope" cached (but unpublished) under it.
	if _, err := root.Stat("/secret/team/nope"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT, got %v", err)
	}
	negatives := func(s vfs.Stats) int64 { return s.NegativeHits + s.FastNegHits + s.CompleteShort }
	for _, p := range []string{"/secret/team/nope", "/secret/team/never"} {
		k0, c0 := k.Stats(), c.Stats()
		if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
			t.Fatalf("%s: want ENOENT, got %v", p, err)
		}
		k1, c1 := k.Stats(), c.Stats()
		if c1.ChildHops-c0.ChildHops != 1 {
			t.Fatalf("%s: want one child hop, got %d", p, c1.ChildHops-c0.ChildHops)
		}
		if got := negatives(k1) - negatives(k0); got != 1 {
			t.Fatalf("%s: one hop-negative lookup moved the negative counters by %d, want 1", p, got)
		}
	}
}
