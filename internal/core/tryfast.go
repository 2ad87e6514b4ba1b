package core

import (
	"fmt"
	"time"

	"dircache/internal/fsapi"
	"dircache/internal/sig"
	"dircache/internal/slab"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// nextComp splits the leading path component from s, skipping slashes.
func nextComp(s string) (comp, rest string) {
	i := 0
	for i < len(s) && s[i] == '/' {
		i++
	}
	j := i
	for j < len(s) && s[j] != '/' {
		j++
	}
	return s[i:j], s[j:]
}

// parentRef steps one directory up from ref with mount climbing and the
// task-root (chroot) barrier, mirroring the slow walk's dot-dot rule.
func parentRef(t *vfs.Task, ref vfs.PathRef) vfs.PathRef {
	root := t.Root()
	for {
		if ref.D == root.D && ref.Mnt == root.Mnt {
			return ref
		}
		if ref.D != ref.Mnt.Root() {
			if p := ref.D.Parent(); p != nil {
				return vfs.PathRef{Mnt: ref.Mnt, D: p}
			}
			return ref
		}
		if ref.Mnt.ParentMount() == nil {
			return ref
		}
		ref = vfs.PathRef{Mnt: ref.Mnt.ParentMount(), D: ref.Mnt.Mountpoint()}
	}
}

// TryFast implements vfs.Hooks: the §3.1 fastpath. It canonicalizes and
// hashes the whole path in one pass (resuming from the start dentry's
// stored state), performs a single DLHT probe, and authorizes the result
// with one PCC probe — constant hash-table work regardless of path depth.
// Any uncertainty returns handled=false, falling back to the slow walk.
func (c *Core) TryFast(t *vfs.Task, start vfs.PathRef, path string, fl vfs.WalkFlags, tr *telemetry.WalkTrace) (vfs.PathRef, error, bool) {
	k := c.k

	tel := k.Telemetry()
	if !tel.On() {
		tel = nil
	}

	tracing := k.PhaseTraceOn()
	var ph vfs.PhaseTimes
	var t0 time.Time
	if tracing {
		t0 = time.Now()
	}

	ns := t.Namespace()
	dl := c.dlhtFor(ns)
	pcc := c.pccFor(t.Cred())

	// Shortcut resume (DESIGN §5f): when the task's recorded resume
	// point covers a prefix of this path and still passes the full
	// legality check, seed the scan from its memoized state and hash
	// only the unresolved suffix.
	var cur pathCursor
	defer cur.flush(c)
	rem := path
	var seeded *resumePoint
	if c.cfg.DirShortcuts {
		if rp, _ := t.ShortcutScratch().(*resumePoint); rp != nil &&
			extendsPrefix(path, rp.prefix) {
			if rd, ok := c.resumeValid(t, pcc, start, rp); ok {
				seeded = rp
				cur.seed(vfs.PathRef{Mnt: rp.mnt, D: rd}, rp.st)
				rem = path[len(rp.prefix):]
				c.stats.shortcutResumes.Add(1)
				c.stats.shortcutDepthSaved.Add(int64(rp.depth))
				if tr != nil {
					tr.Event(telemetry.EvShortcutResume,
						fmt.Sprintf("depth=%d prefix=%s", rp.depth, rp.prefix))
				}
			}
		}
	}
	if seeded == nil && !cur.init(c, start) {
		return vfs.PathRef{}, nil, false
	}
	if tracing {
		ph.Init = time.Since(t0)
		t0 = time.Now()
	}

	mustDir := fl&vfs.WalkDirectory != 0
	sawTrailingSlash := false
	var lastComp string

	for {
		var comp string
		comp, rem = nextComp(rem)
		if comp == "" {
			break
		}
		if len(comp) > 255 {
			return vfs.PathRef{}, nil, false
		}
		sawTrailingSlash = len(rem) > 0
		switch comp {
		case ".":
			// Linux evaluates search permission on the directory for a
			// "." component too; a lexical skip must preserve that (it
			// is observable when "." is the path's last effective step).
			cur.dotted = true
			if !c.checkPrefixDir(t, dl, pcc, cur.base, cur.atBase, cur.st) {
				return vfs.PathRef{}, nil, false
			}
			continue
		case "..":
			cur.dotted = true
			if !c.cfg.LexicalDotDot {
				// Linux semantics (§4.2): verify search permission on
				// the directory being exited with an extra fastpath
				// lookup.
				c.stats.dotDotChecks.Add(1)
				if !c.checkPrefixDir(t, dl, pcc, cur.base, cur.atBase, cur.st) {
					return vfs.PathRef{}, nil, false
				}
			}
			if !cur.pop(c, t) {
				return vfs.PathRef{}, nil, false
			}
		default:
			if !cur.push(comp, len(path)-len(rem)) {
				return vfs.PathRef{}, nil, false
			}
			lastComp = comp
		}
	}
	if sawTrailingSlash {
		mustDir = true
	}
	if tracing {
		ph.ScanHash = time.Since(t0)
		t0 = time.Now()
	}

	if cur.atBase && cur.depth() == 0 {
		// The path resolved to the start directory itself ("." etc.):
		// the task already holds a reference to it.
		if cur.base.D.IsDead() || cur.base.D.Inode() == nil {
			return vfs.PathRef{}, nil, false
		}
		if mustDir && !cur.base.D.IsDir() {
			return vfs.PathRef{}, fsapi.ENOTDIR, true
		}
		k.AddFastHit(false)
		return cur.base, nil, true
	}

	// Any post-scan miss first mines the scan for a resume point that
	// later fastpath scans on this task can seed from.
	miss := func() (vfs.PathRef, error, bool) {
		c.noteShortcut(t, dl, pcc, start, path, &cur, seeded)
		return vfs.PathRef{}, nil, false
	}

	idx, sg := cur.st.Sum()
	d := dl.Lookup(idx, sg)
	if tracing {
		ph.HashLookup = time.Since(t0)
		t0 = time.Now()
	}
	// Batch-shootdown freshness: one generation compare on the hot path;
	// a stale entry (covered by a range shootdown) is lazily discarded and
	// the walk falls back.
	if d == nil || !c.fresh(d) {
		// Only a true absence is hop-eligible: a stale entry must take
		// the slow walk so EndSlowLookup refreshes it in place.
		if d == nil {
			if res, err, ok := c.childHop(t, &cur, lastComp, seeded != nil, fl, mustDir, tr); ok {
				return res, err, true
			}
		}
		c.stats.dlhtMiss.Add(1)
		tr.Event(telemetry.EvDLHTMiss, path)
		return miss()
	}
	looked := d
	tr.Event(telemetry.EvDLHTHit, path)

	// Alias dentries redirect to the real dentry; the redirect is pinned
	// to the target's version (a structural change to the target bumps
	// its seq and stales the alias). The alias's own prefix check covers
	// the requested path's parents; the target is checked separately
	// below (§4.2).
	if d.Flags()&vfs.DAlias != 0 {
		fd := fast(d)
		real := d.Target()
		if fd == nil || real == nil || real.IsDead() ||
			fd.targetSeq.Load() != dentrySeq(real) {
			tr.Event(telemetry.EvFastAbort, "stale alias")
			return miss()
		}
		if !pcc.Lookup(d.ID(), dentrySeq(d)) {
			c.stats.pccMiss.Add(1)
			tr.Event(telemetry.EvPCCMiss, "alias")
			return miss()
		}
		tr.Event(telemetry.EvAlias, "")
		d = real
	}

	// Negative dentries answer ENOENT/ENOTDIR — but only for credentials
	// whose prefix check to them is memoized (nonexistence is information
	// too).
	if d.IsNegative() {
		if !pcc.Lookup(d.ID(), dentrySeq(d)) {
			c.stats.pccMiss.Add(1)
			tr.Event(telemetry.EvPCCMiss, "negative")
			return miss()
		}
		tr.Event(telemetry.EvPCCHit, "negative")
		tr.Event(telemetry.EvNegative, path)
		errno := fsapi.ENOENT
		if d.Flags()&vfs.DNotDir != 0 {
			errno = fsapi.ENOTDIR
		}
		k.AddFastHit(true)
		return vfs.PathRef{}, errno, true
	}

	// Unhydrated dentries (readdir stubs) need an FS call; that belongs
	// to the slow path.
	if d.Flags()&vfs.DUnhydrated != 0 {
		tr.Event(telemetry.EvFastAbort, "unhydrated")
		return miss()
	}

	// Final symlink: follow through the cached resolution (§4.2), unless
	// the caller asked for the link itself.
	if d.IsSymlink() && (fl&vfs.WalkNoFollow == 0 || mustDir) {
		for depth := 0; ; depth++ {
			if depth > 8 {
				return miss()
			}
			fd := fast(d)
			if fd == nil {
				return miss()
			}
			// The link's own prefix check (covering the requested
			// path's parents) must be memoized; the target is checked
			// separately after the loop (§4.2).
			if !pcc.Lookup(d.ID(), fd.seq.Load()) {
				c.stats.pccMiss.Add(1)
				return miss()
			}
			tgt := c.k.DentryFromRef(slab.Unpack(fd.target.Load()))
			if tgt == nil || tgt.IsDead() || fd.targetSeq.Load() != dentrySeq(tgt) {
				return miss()
			}
			if !c.fresh(tgt) {
				return miss()
			}
			d = tgt
			if !d.IsSymlink() {
				break
			}
		}
		if d.IsNegative() || d.Flags()&vfs.DUnhydrated != 0 {
			return miss()
		}
	}

	fd := fast(d)
	if fd == nil {
		return miss()
	}
	// Alias/symlink redirects land on a dentry the lookup gate above never
	// saw; give it the same freshness check before trusting its PCC entry.
	if d != looked && !c.fresh(d) {
		return miss()
	}
	seq := fd.seq.Load()
	var pccStart time.Time
	if tel != nil {
		pccStart = time.Now()
	}
	hit := pcc.Lookup(d.ID(), seq)
	if tel != nil {
		tel.Record(telemetry.HistPCC, time.Since(pccStart))
	}
	if tracing {
		ph.PermCheck = time.Since(t0)
		t0 = time.Now()
	}
	if !hit || c.cfg.ForcePCCMiss {
		c.stats.pccMiss.Add(1)
		tr.Event(telemetry.EvPCCMiss, "")
		return miss()
	}
	tr.Event(telemetry.EvPCCHit, "")
	mnt := fd.mntP.Load()
	if mnt == nil || d.IsDead() || d.Super().Caps().Revalidate {
		tr.Event(telemetry.EvFastAbort, "unusable dentry")
		return miss()
	}
	if mustDir && !d.IsDir() {
		k.AddFastHit(false)
		return vfs.PathRef{}, fsapi.ENOTDIR, true
	}
	k.AddFastHit(false)
	if tracing {
		ph.Finalize = time.Since(t0)
		k.RecordPhases(ph)
	}
	return vfs.PathRef{Mnt: mnt, D: d}, nil, true
}

// childHop answers a one-component scan from the base directory's cached
// children when the DLHT has no entry for the target — the
// readdir-then-operate shape whose terminals admission control
// deliberately defers (tar extraction streams, rm -r teardown scans,
// stat streaks before their Nth touch). The base is either the task's
// own start reference or a fully validated resume point, so the prefix
// check to it holds; FastChildLookup verifies search permission on the
// base itself and probes the same hash table a slow walk's component
// step would, making the answer authoritative without DLHT or PCC state.
// Final-symlink resolution stays with the slow walk unless the caller
// asked for the link itself.
func (c *Core) childHop(t *vfs.Task, cur *pathCursor, comp string, seeded bool, fl vfs.WalkFlags, mustDir bool, tr *telemetry.WalkTrace) (vfs.PathRef, error, bool) {
	if cur.depth() != 1 || cur.dotted || comp == "" {
		return vfs.PathRef{}, nil, false
	}
	base := cur.base
	if !seeded && base.D != nil && base.D.Flags()&vfs.DComplete != 0 {
		// An unseeded one-component walk over a complete directory is
		// scan-shaped: admission control admits those eagerly (they
		// revisit), so the slow walk publishes them and later visits pay
		// one DLHT+PCC probe instead of a per-walk permission evaluation
		// here. The hop is for the seeded shape — absolute-path
		// readdir-then-operate streaks resumed at the parent.
		return vfs.PathRef{}, nil, false
	}
	d, errno, known := c.k.FastChildLookup(t, base, comp)
	if !known {
		return vfs.PathRef{}, nil, false
	}
	if errno == nil && d.IsSymlink() && (fl&vfs.WalkNoFollow == 0 || mustDir) {
		return vfs.PathRef{}, nil, false
	}
	if d != nil && !c.hopAdmissible(d) {
		return vfs.PathRef{}, nil, false
	}
	if errno != nil {
		c.stats.childHops.Add(1)
		tr.Event(telemetry.EvNegative, comp)
		c.k.AddFastHit(true)
		return vfs.PathRef{}, errno, true
	}
	c.stats.childHops.Add(1)
	if mustDir && !d.IsDir() {
		c.k.AddFastHit(false)
		return vfs.PathRef{}, fsapi.ENOTDIR, true
	}
	c.k.AddFastHit(false)
	return vfs.PathRef{Mnt: base.Mnt, D: d}, nil, true
}

// hopAdmissible decides whether the child hop may answer with d without
// starving admission control. Published entries are answered outright
// (population already happened; the DLHT probe just missed — e.g. a
// seeded scan hashing a different prefix). Unpublished entries accrue a
// touch on the same counter EndSlowLookup uses, but the touch that would
// cross the admission threshold declines the hop: that walk still goes
// slow, and admitPopulate sees the Nth touch and publishes into the
// DLHT. Deferred entries — the readdir-then-operate streaks the hop
// exists for — stay below the threshold and are answered from the
// parent's children.
func (c *Core) hopAdmissible(d *vfs.Dentry) bool {
	fd := fast(d)
	if fd == nil {
		return false
	}
	fd.mu.Lock()
	published := fd.inTable != nil
	fd.mu.Unlock()
	if published {
		return true
	}
	if int(fd.touches.Load())+1 >= c.admitAfter {
		return false
	}
	fd.touches.Add(1)
	return true
}

// checkPrefixDir resolves the current lexical prefix (the base directory
// when atBase, otherwise via DLHT+PCC) and verifies search permission on
// it — the extra per-dot fastpath lookup of §4.2. Returns false to force
// the slow walk (which produces the authoritative result).
func (c *Core) checkPrefixDir(t *vfs.Task, dl *DLHT, pcc *PCC, base vfs.PathRef, atBase bool, st sig.State) bool {
	var d *vfs.Dentry
	if atBase {
		d = base.D // cwd/root chain: referenced directories
	} else {
		idx, sg := st.Sum()
		d = dl.Lookup(idx, sg)
		if d == nil {
			c.stats.dlhtMiss.Add(1)
			return false
		}
		if !c.fresh(d) {
			c.stats.dlhtMiss.Add(1)
			return false
		}
		if d.Flags()&vfs.DAlias != 0 {
			real := d.Target()
			if real == nil || real.IsDead() {
				return false
			}
			d = real
		}
		if !pcc.Lookup(d.ID(), dentrySeq(d)) {
			c.stats.pccMiss.Add(1)
			return false
		}
	}
	ino := d.Inode()
	if ino == nil {
		return false
	}
	return c.k.CheckExec(t.Cred(), mntOf(d, base.Mnt), ino) == nil
}

// mntOf returns the dentry's recorded mount, falling back to hint.
func mntOf(d *vfs.Dentry, hint *vfs.Mount) *vfs.Mount {
	if fd := fast(d); fd != nil {
		if m := fd.mntP.Load(); m != nil {
			return m
		}
	}
	return hint
}
