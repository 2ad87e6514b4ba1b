package core

import (
	"dircache/internal/sig"
	"dircache/internal/slab"
	"dircache/internal/vfs"
)

// Directory shortcuts (DESIGN §5f): a fastpath scan resumes from the
// deepest already-cached ancestor of the target path instead of the walk
// start, so the hash bytes per warm lookup stop scaling with depth. A
// resume point is found by probing the DLHT with the intermediate
// signature states the fastpath scan computed anyway (binary descent, so
// probe count is logarithmic in depth, not linear) and remembered per
// task. Its one consumer is TryFast, which seeds its scan from the resume
// point's state and hashes only the unresolved suffix; the slow walk
// always steps every component from its start.
//
// Legality: a resume is only taken when the PCC covers the resume dentry
// for the requesting credential (the memoized prefix check subsumes the
// skipped components' search permissions), the dentry is fresh under the
// batched-shootdown generation, and its memoized state still equals the
// state recorded in the resume point (an exact sig.State compare, so
// re-signing under aliasing or any eager invalidation kills the point).
// Shootdown epochs therefore invalidate resume points exactly like DLHT
// hits: both are guarded by the same fresh()/seq machinery.
type resumePoint struct {
	// Identity of the walk start this point is relative to: prefix is a
	// lexical prefix of paths interpreted from exactly this start in
	// this namespace. The start dentry is held as a packed
	// generation-tagged ref — resume points outlive walks, so a raw
	// pointer could alias a recycled slab slot's next tenant.
	startRef uint64
	startM   *vfs.Mount
	ns       *vfs.Namespace

	// The resume target: a published directory dentry (packed ref, same
	// recycling rule) whose canonical path is prefix, with its mount and
	// canonical signature state at record time.
	dref uint64
	mnt  *vfs.Mount
	st   sig.State

	prefix string // lexical prefix resolved by d (no trailing slash)
	depth  int    // components skipped when resuming at d
}

// extendsPrefix reports whether path strictly extends prefix with at
// least one more real component.
func extendsPrefix(path, prefix string) bool {
	if prefix == "" || len(path) <= len(prefix)+1 {
		return false
	}
	if path[:len(prefix)] != prefix || path[len(prefix)] != '/' {
		return false
	}
	for i := len(prefix) + 1; i < len(path); i++ {
		if path[i] != '/' {
			return true
		}
	}
	return false
}

// resumeAuthorized is the legality gate's permission half: the PCC must
// cover the resume dentry for this credential, proving the skipped
// prefix's search permissions were checked for it. testSkipShortcutPCC
// is the injected-bug seam that lets a test prove the gate matters.
func (c *Core) resumeAuthorized(pcc *PCC, d *vfs.Dentry, fd *fastDentry) bool {
	if c.testSkipShortcutPCC {
		return true
	}
	return pcc.Lookup(d.ID(), fd.seq.Load())
}

// probeResume asks the DLHT whether the prefix with signature state st is
// a usable resume point for this credential: a live, fresh, published
// directory whose memoized state exactly equals st. Returns the dentry
// and its mount, or nil.
func (c *Core) probeResume(dl *DLHT, pcc *PCC, st sig.State) (*vfs.Dentry, *vfs.Mount) {
	idx, sg := st.Sum()
	d := dl.Lookup(idx, sg)
	if d == nil || d.IsDead() || !d.IsDir() {
		return nil, nil
	}
	if d.Flags()&(vfs.DAlias|vfs.DNegative|vfs.DUnhydrated|vfs.DMounted) != 0 {
		return nil, nil
	}
	if d.Super().Caps().Revalidate {
		return nil, nil // FS wants per-component revalidation; never skip it
	}
	if !c.fresh(d) {
		return nil, nil
	}
	fd := fast(d)
	if fd == nil {
		return nil, nil
	}
	sp := fd.statePtr.Load()
	if sp == nil || *sp != st {
		return nil, nil
	}
	mnt := fd.mntP.Load()
	if mnt == nil {
		return nil, nil
	}
	if !c.resumeAuthorized(pcc, d, fd) {
		return nil, nil
	}
	return d, mnt
}

// resumeValid re-checks a recorded resume point against live state: same
// walk start and namespace, and the target still passes every probe
// condition with its state unchanged. Called before every use, so a
// point staled by any mutation (seq bump, re-sign, batch shootdown,
// eviction, slab-slot recycling) is silently dropped. Returns the
// resolved resume dentry on success.
func (c *Core) resumeValid(t *vfs.Task, pcc *PCC, start vfs.PathRef, rp *resumePoint) (*vfs.Dentry, bool) {
	if rp == nil || rp.dref == 0 || rp.startM != start.Mnt ||
		rp.ns != t.Namespace() ||
		start.D == nil || rp.startRef != start.D.SelfRef().Pack() {
		return nil, false
	}
	d := c.k.DentryFromRef(slab.Unpack(rp.dref))
	if d == nil || d.IsDead() || !d.IsDir() ||
		d.Flags()&(vfs.DAlias|vfs.DNegative|vfs.DUnhydrated|vfs.DMounted) != 0 {
		return nil, false
	}
	if !c.fresh(d) {
		return nil, false
	}
	fd := fast(d)
	if fd == nil {
		return nil, false
	}
	sp := fd.statePtr.Load()
	if sp == nil || *sp != rp.st {
		return nil, false
	}
	if fd.mntP.Load() != rp.mnt {
		return nil, false
	}
	if !c.resumeAuthorized(pcc, d, fd) {
		return nil, false
	}
	return d, true
}

// noteShortcut runs when the fastpath could not answer a path: it
// searches the scan's prefix marks for the deepest published, authorized
// ancestor and records it as the task's resume point. The deepest prefix
// (the target's parent) is probed first — a hot directory is routinely
// published while the intermediates above it are not, and that isolated
// entry is both the likeliest and the most valuable hit. Only when the
// parent misses does binary descent search the rest, keeping the probe
// count logarithmic in depth; since DLHT presence is not strictly
// monotone along a path (admission control can publish a child before
// its parent), the descent's result is a heuristic deepest — every
// candidate is fully legality-checked, so a suboptimal pick only costs
// performance, never correctness. Dotted scans are excluded: a resume
// must not skip the per-"." and per-".." permission checks of §4.2.
func (c *Core) noteShortcut(t *vfs.Task, dl *DLHT, pcc *PCC, start vfs.PathRef, path string, cur *pathCursor, seeded *resumePoint) {
	if !c.cfg.DirShortcuts || cur.dotted {
		return
	}
	n := cur.depth()
	if n < 2 {
		// No strict ancestor below the target to resume at. (With a
		// seeded scan the task already holds the best point we know.)
		return
	}
	var best int
	var bestD *vfs.Dentry
	var bestM *vfs.Mount
	if d, m := c.probeResume(dl, pcc, cur.stateAt(n-1)); d != nil {
		best, bestD, bestM = n-1, d, m
	} else {
		lo, hi := 0, n-2
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if d, m := c.probeResume(dl, pcc, cur.stateAt(mid)); d != nil {
				lo, best, bestD, bestM = mid, mid, d, m
			} else {
				hi = mid - 1
			}
		}
	}
	if bestD == nil {
		return
	}
	baseDepth := 0
	if seeded != nil {
		baseDepth = seeded.depth
	}
	if start.D == nil {
		return
	}
	rp := &resumePoint{
		startRef: start.D.SelfRef().Pack(),
		startM:   start.Mnt,
		ns:       t.Namespace(),
		dref:     bestD.SelfRef().Pack(),
		mnt:      bestM,
		st:       cur.stateAt(best),
		prefix:   path[:cur.offAt(best-1)],
		depth:    baseDepth + best,
	}
	t.SetShortcutScratch(rp)
}
