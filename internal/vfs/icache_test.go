package vfs

import "testing"

// TestInodeCacheForgetsDeadNames: an inode leaves the inode cache when its
// last cached name dies, however it dies (remote invalidation, LRU
// eviction), not only on a local unlink.
func TestInodeCacheForgetsDeadNames(t *testing.T) {
	k, root := newKernel(t, Config{SyncMode: SyncRCU, DirCompleteness: true})
	sb := k.RootDentry().sb
	for _, p := range []string{"/tmp/a", "/tmp/b", "/tmp/c"} {
		if err := root.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := sb.InodeCount()
	k.InvalidateCachedPath("/tmp/a")
	if got := sb.InodeCount(); got != before-1 {
		t.Fatalf("after invalidating /tmp/a: %d inodes cached, want %d", got, before-1)
	}
	k.DropCaches()
	if got, dents := sb.InodeCount(), k.DentryCount(); got > dents+1 {
		t.Fatalf("after DropCaches: %d inodes cached for %d dentries", got, dents)
	}
}

// TestHardLinkSharesInodeAcrossEviction: hard links share one Inode, so
// losing one cached name must not forget the inode the other name still
// uses. Otherwise the re-looked-up name gets a second Inode for the same
// node and a chmod through one name leaves the other stale.
func TestHardLinkSharesInodeAcrossEviction(t *testing.T) {
	k, root := newKernel(t, Config{SyncMode: SyncRCU, DirCompleteness: true})
	if err := root.Create("/tmp/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := root.Link("/tmp/f", "/tmp/g"); err != nil {
		t.Fatal(err)
	}
	same := func(step string) {
		t.Helper()
		f, errF := root.Stat("/tmp/f")
		g, errG := root.Stat("/tmp/g")
		if errF != nil || errG != nil {
			t.Fatalf("%s: stat f: %v, stat g: %v", step, errF, errG)
		}
		if f != g {
			t.Fatalf("%s: hard links disagree: f=%+v g=%+v", step, f, g)
		}
	}
	same("linked")

	// Drop one name and look it up again: it must find the inode the
	// other name still holds, or a chmod through the other name leaves
	// it stale.
	for _, step := range []struct{ evict, chmod string }{{"/tmp/f", "/tmp/g"}, {"/tmp/g", "/tmp/f"}} {
		k.InvalidateCachedPath(step.evict)
		if _, err := root.Stat(step.evict); err != nil {
			t.Fatal(err)
		}
		if err := root.Chmod(step.chmod, 0o600); err != nil {
			t.Fatal(err)
		}
		same("chmod through " + step.chmod + " after evicting " + step.evict)
		if err := root.Chmod(step.chmod, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
