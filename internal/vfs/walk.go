package vfs

import (
	"errors"
	"fmt"
	"time"

	"dircache/internal/fsapi"
	"dircache/internal/telemetry"
)

// MaxPath bounds path lengths, matching Linux's PATH_MAX.
const MaxPath = 4096

// WalkFlags modify path resolution.
type WalkFlags uint32

const (
	// WalkNoFollow does not follow a symlink in the final component
	// (lstat, O_NOFOLLOW).
	WalkNoFollow WalkFlags = 1 << iota
	// WalkDirectory requires the final component to be a directory.
	WalkDirectory
	// WalkNoFast skips the fastpath hook (used internally when the
	// caller needs authoritative slow-walk side effects).
	WalkNoFast
)

// WalkFailure is the structured ENOENT/ENOTDIR result of a slow walk. It
// tells the hooks where the resolution stopped so deep negative dentries
// (§5.2) can be installed.
type WalkFailure struct {
	Errno fsapi.Errno
	// Anchor is the deepest cached dentry on the path: the negative
	// dentry for the failing component, the directory whose completeness
	// answered the miss, or — for ENOTDIR — the non-directory dentry the
	// path tried to descend through.
	Anchor PathRef
	// Missing lists the path components below Anchor that are not
	// cached, in order.
	Missing []string
}

// Error implements error.
func (f *WalkFailure) Error() string { return f.Errno.Error() }

// Unwrap lets errors.Is match the underlying Errno.
func (f *WalkFailure) Unwrap() error { return f.Errno }

// errSeqRetry aborts an optimistic walk that observed torn state.
var errSeqRetry = errors.New("vfs: optimistic walk retry")

// PhaseTimes decomposes one lookup into the cost centers charted in
// Figure 3 of the paper.
type PhaseTimes struct {
	Init       time.Duration // start-ref resolution, setup
	ScanHash   time.Duration // component scanning and key hashing
	HashLookup time.Duration // hash table probes
	PermCheck  time.Duration // per-directory permission checks
	Finalize   time.Duration // final dentry validation
}

// Add accumulates other into p.
func (p *PhaseTimes) Add(o PhaseTimes) {
	p.Init += o.Init
	p.ScanHash += o.ScanHash
	p.HashLookup += o.HashLookup
	p.PermCheck += o.PermCheck
	p.Finalize += o.Finalize
}

// Total sums all phases.
func (p *PhaseTimes) Total() time.Duration {
	return p.Init + p.ScanHash + p.HashLookup + p.PermCheck + p.Finalize
}

// SetPhaseSink installs a callback receiving each walk's PhaseTimes
// (only honored when Config.PhaseTrace is set). Not synchronized with
// in-flight walks; install before measuring.
func (k *Kernel) SetPhaseSink(fn func(PhaseTimes)) { k.phases = fn }

// PhaseTraceOn reports whether phase tracing is active (config flag set
// and a sink installed) — hooks use it to instrument the fastpath.
func (k *Kernel) PhaseTraceOn() bool { return k.cfg.PhaseTrace && k.phases != nil }

// RecordPhases delivers one lookup's phase decomposition to the sink.
func (k *Kernel) RecordPhases(p PhaseTimes) {
	if k.phases != nil {
		k.phases(p)
	}
}

// nextComponent splits the leading path component from s, skipping any
// leading slashes. comp == "" means s held nothing but slashes.
func nextComponent(s string) (comp, rest string) {
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

// hasMoreComponents reports whether s contains any non-slash bytes.
func hasMoreComponents(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '/' {
			return true
		}
	}
	return false
}

// Walk resolves path to a PathRef using the fastpath when installed,
// falling back to the component-at-a-time slow walk. Relative paths start
// at the task's working directory.
func (t *Task) Walk(path string, fl WalkFlags) (PathRef, error) {
	return t.WalkFrom(PathRef{}, path, fl)
}

// WalkFrom resolves path starting at `at` for relative paths (the *at()
// family); a zero `at` means the working directory. Absolute paths always
// start at the task root.
func (t *Task) WalkFrom(at PathRef, path string, fl WalkFlags) (PathRef, error) {
	k := t.k
	// Epoch section for the whole walk: every dentry, hash-chain node,
	// and fastpath slot observed on the way is protected from slab
	// recycling until the walk exits (slab reclamation grace period).
	ep := k.gate.Enter()
	defer k.gate.Exit(ep)
	k.stats.cell().lookups.Add(1)
	if path == "" {
		return PathRef{}, fsapi.ENOENT
	}
	if len(path) >= MaxPath {
		return PathRef{}, fsapi.ENAMETOOLONG
	}
	var start PathRef
	if path[0] == '/' {
		start = t.Root()
	} else if at.D != nil {
		start = at
	} else {
		start = t.Cwd()
	}

	// Telemetry: when detached this is the entire cost — one atomic load
	// and one branch. When attached but disabled, On() folds it to nil so
	// the rest of the walk takes the same nil-pointer paths.
	tel := k.tel.Load()
	var walkStart time.Time
	var tr *telemetry.WalkTrace
	var trHeld bool
	if !tel.On() {
		tel = nil
	} else {
		walkStart = time.Now()
		if armed := t.takeArmedTrace(); armed != nil {
			// A wire span armed by the 9P server: annotate it in place so
			// the walk's stage events stitch into the end-to-end trace.
			// Its owner finishes it; FinishWalk only appends a summary.
			tr = armed
		} else if tel.Sampled() {
			var scratch *telemetry.WalkTrace
			scratch, trHeld = t.acquireTrace()
			tr = tel.StartWalk(scratch, path)
		}
	}

	if k.hooks != nil && fl&WalkNoFast == 0 {
		if res, err, handled := k.hooks.TryFast(t, start, path, fl, tr); handled {
			if tel != nil {
				d := time.Since(walkStart)
				var trID uint64
				if tr != nil {
					trID = tr.ID
				}
				tel.RecordEx(telemetry.HistFastpath, d, trID)
				tel.RecordEx(telemetry.HistWalk, d, trID)
				tel.FinishWalk(tr, true, err, d)
				t.releaseTrace(trHeld)
			}
			return res, err
		}
	}

	tr.Event(telemetry.EvSlowWalk, "")
	k.stats.cell().slowWalks.Add(1)
	var token uint64
	if k.hooks != nil {
		token = k.hooks.BeginSlow()
	}
	res, lexical, err := k.walkSlow(t, start, path, fl, tr)
	if k.hooks != nil {
		if err == nil {
			k.hooks.EndSlowLookup(token, t, start, path, lexical, res)
		} else {
			var f *WalkFailure
			if errors.As(err, &f) {
				k.hooks.EndSlowNegative(token, t, start, path, f)
			}
		}
	}
	if tel != nil {
		d := time.Since(walkStart)
		var trID uint64
		if tr != nil {
			trID = tr.ID
		}
		tel.RecordEx(telemetry.HistSlowpath, d, trID)
		tel.RecordEx(telemetry.HistWalk, d, trID)
		tel.FinishWalk(tr, false, err, d)
		t.releaseTrace(trHeld)
	}
	return res, err
}

// walkSlow dispatches on the synchronization era.
func (k *Kernel) walkSlow(t *Task, start PathRef, path string, fl WalkFlags, tr *telemetry.WalkTrace) (PathRef, PathRef, error) {
	sc := k.stats.cell()
	switch k.cfg.SyncMode {
	case SyncBigLock:
		k.big.Lock()
		defer k.big.Unlock()
		return k.walkOnce(t, start, path, fl, tr)
	case SyncBucketLock:
		return k.refWalk(t, start, path, fl, tr)
	default: // SyncRCU
		for try := 0; try < 4; try++ {
			seq, even := k.readSeqBegin()
			if !even {
				sc.retryWalks.Add(1)
				tr.Event(telemetry.EvSeqRetry, "writer active")
				continue
			}
			res, lex, err := k.walkOnce(t, start, path, fl, tr)
			if err == errSeqRetry {
				sc.retryWalks.Add(1)
				tr.Event(telemetry.EvSeqRetry, "torn read")
				continue
			}
			if !k.readSeqValid(seq) {
				sc.retryWalks.Add(1)
				tr.Event(telemetry.EvSeqRetry, "seq changed")
				continue
			}
			return res, lex, err
		}
		// ref-walk fallback: block out structural changes and redo.
		sc.retryWalks.Add(1)
		tr.Event(telemetry.EvRefWalk, "")
		tr.SetAnomaly(telemetry.AnomRefWalk)
		return k.refWalk(t, start, path, fl, tr)
	}
}

// refWalk walks with structural changes blocked out. Eviction does not
// take renameRW, so a dentry can still die under the walk; that walk is
// retried rather than returning errSeqRetry to the caller.
func (k *Kernel) refWalk(t *Task, start PathRef, path string, fl WalkFlags, tr *telemetry.WalkTrace) (PathRef, PathRef, error) {
	k.renameRW.RLock()
	defer k.renameRW.RUnlock()
	for {
		res, lex, err := k.walkOnce(t, start, path, fl, tr)
		if err != errSeqRetry {
			return res, lex, err
		}
		k.stats.cell().retryWalks.Add(1)
	}
}

// segment is one pending piece of path: the original request or a symlink
// target. aliasable marks components of the original user path (only those
// get symlink-alias dentries, §4.2).
type segment struct {
	rest      string
	aliasable bool
}

// walkOnce performs one component-at-a-time traversal — the analogue of
// Linux's link_path_walk + walk_component, including the per-directory
// permission checks that constitute the prefix check.
func (k *Kernel) walkOnce(t *Task, start PathRef, path string, fl WalkFlags, tr *telemetry.WalkTrace) (PathRef, PathRef, error) {
	sc := k.stats.cell()
	var ph PhaseTimes
	tracing := k.cfg.PhaseTrace && k.phases != nil
	var t0 time.Time
	if tracing {
		t0 = time.Now()
	}

	c := t.Cred()
	ns := t.Namespace()
	cur := start
	root := t.Root()

	// Segment stack for symlink continuations, reusing the task's scratch
	// buffer so an ordinary slow walk allocates nothing here.
	segs, scratch := t.acquireSegs()
	defer func() { t.releaseSegs(segs, scratch) }()
	segs[0] = segment{rest: path, aliasable: true}
	symDepth := 0

	var aliasCur PathRef // current tail of the alias chain being built
	var lexical PathRef  // what the path's lexical form denotes (§4.2)

	if tracing {
		ph.Init += time.Since(t0)
	}

	mustDir := fl&WalkDirectory != 0

	for len(segs) > 0 {
		seg := &segs[len(segs)-1]
		var comp string
		if tracing {
			t0 = time.Now()
		}
		comp, seg.rest = nextComponent(seg.rest)
		if tracing {
			ph.ScanHash += time.Since(t0)
		}
		if comp == "" {
			// Segment exhausted (was empty or all slashes).
			segs = segs[:len(segs)-1]
			continue
		}
		if len(comp) > 255 {
			return PathRef{}, PathRef{}, fsapi.ENAMETOOLONG
		}
		trailingSlash := len(seg.rest) > 0 && !hasMoreComponents(seg.rest)
		final := !hasMoreComponents(seg.rest) && len(segs) == 1
		if final && trailingSlash {
			// "path/" requires the result to be a directory.
			mustDir = true
		}

		// The current location must be a searchable directory.
		curIno := cur.D.Inode()
		if curIno == nil || cur.D.IsDead() {
			return PathRef{}, PathRef{}, errSeqRetry
		}
		if !curIno.Mode().IsDir() {
			return PathRef{}, PathRef{}, &WalkFailure{
				Errno:   fsapi.ENOTDIR,
				Anchor:  cur,
				Missing: remainingComponents(comp, segs),
			}
		}
		if tracing {
			t0 = time.Now()
		}
		err := k.mayLookup(c, cur.Mnt, curIno)
		if tracing {
			ph.PermCheck += time.Since(t0)
		}
		if err != nil {
			return PathRef{}, PathRef{}, err
		}

		if comp == "." {
			continue
		}
		if comp == ".." {
			sc.dotDotSteps.Add(1)
			tr.Event(telemetry.EvDotDot, "")
			aliasCur = PathRef{} // stop aliasing across parent references
			cur = k.followDotDot(t, ns, root, cur)
			continue
		}

		sc.components.Add(1)
		tr.Event(telemetry.EvComponent, comp)

		// Hash table probe.
		if tracing {
			t0 = time.Now()
		}
		d := k.table.lookup(cur.D.id, comp)
		if tracing {
			ph.HashLookup += time.Since(t0)
		}

		if d != nil && d.sb.caps.Revalidate {
			// Close-to-open consistency: the cached entry must be
			// re-verified at the server (§4.3). Positive entries refresh
			// via GetNode; negatives are not trusted at all.
			if d.IsNegative() || k.revalidate(d) != nil {
				k.killDentryKeepComplete(d)
				d = nil
			}
		}
		if d != nil {
			if d.IsDead() {
				return PathRef{}, PathRef{}, errSeqRetry
			}
			sc.cacheHits.Add(1)
			tr.Event(telemetry.EvHashHit, comp)
			k.lru.touch(d)
			if d.IsNegative() {
				sc.negativeHits.Add(1)
				tr.Event(telemetry.EvNegative, comp)
				errno := fsapi.ENOENT
				if d.Flags()&DNotDir != 0 {
					errno = fsapi.ENOTDIR
				}
				return PathRef{}, PathRef{}, &WalkFailure{
					Errno:   errno,
					Anchor:  PathRef{Mnt: cur.Mnt, D: d},
					Missing: remainingComponents("", segs),
				}
			}
			if d.Flags()&DUnhydrated != 0 {
				tr.Event(telemetry.EvHydrate, comp)
				if err := k.hydrate(d); err != nil {
					return PathRef{}, PathRef{}, err
				}
			}
		} else {
			// Miss: authoritative shortcut if the directory is complete.
			// The flag is only trusted after a locked re-read of the
			// child map: bulk population installs children (child map,
			// then hash table) before setting DComplete, so a probe that
			// missed the table can still observe the flag — the re-read
			// then finds the freshly installed child, and missLookup
			// below resolves it from the map without a backend call.
			if k.cfg.DirCompleteness && cur.D.Flags()&DComplete != 0 &&
				cur.D.child(comp) == nil {
				sc.completeShort.Add(1)
				tr.Event(telemetry.EvCompleteShort, comp)
				return PathRef{}, PathRef{}, &WalkFailure{
					Errno:   fsapi.ENOENT,
					Anchor:  cur,
					Missing: remainingComponents(comp, segs),
				}
			}
			var werr error
			if tr != nil {
				fsStart := time.Now()
				d, werr = k.missLookupTraced(cur, comp, tr)
				tr.EventDur(telemetry.EvFSLookup, comp, time.Since(fsStart))
			} else {
				d, werr = k.missLookup(cur, comp)
			}
			if werr != nil {
				if errno, ok := werr.(fsapi.Errno); ok && errno == fsapi.ENOENT {
					anchor := cur
					missing := remainingComponents(comp, segs)
					// If a negative dentry was installed, it anchors the
					// failure itself.
					if nd := cur.D.child(comp); nd != nil && nd.IsNegative() {
						anchor = PathRef{Mnt: cur.Mnt, D: nd}
						missing = remainingComponents("", segs)
					}
					return PathRef{}, PathRef{}, &WalkFailure{Errno: fsapi.ENOENT, Anchor: anchor, Missing: missing}
				}
				return PathRef{}, PathRef{}, werr
			}
		}

		next := PathRef{Mnt: cur.Mnt, D: d}

		// Cross mount points (possibly stacked).
		for next.D.Flags()&DMounted != 0 {
			m := ns.mountAt(next.Mnt, next.D)
			if m == nil {
				break
			}
			next = PathRef{Mnt: m, D: m.root}
		}

		// Symbolic links.
		if next.D.IsSymlink() {
			follow := !final || fl&WalkNoFollow == 0 || trailingSlash || mustDir
			if final && fl&WalkNoFollow != 0 && !trailingSlash && !mustDir {
				follow = false
			}
			if follow {
				symDepth++
				if symDepth > k.cfg.MaxSymlinks {
					return PathRef{}, PathRef{}, fsapi.ELOOP
				}
				sc.symlinkJumps.Add(1)
				tr.Event(telemetry.EvSymlink, comp)
				target, err := k.readLinkBody(next.D)
				if err != nil {
					return PathRef{}, PathRef{}, err
				}
				if k.hooks != nil && seg.aliasable {
					aliasCur = PathRef{Mnt: cur.Mnt, D: next.D}
					if final && lexical.D == nil {
						// The requested path denotes the link itself;
						// the result is its target (§4.2 link-f).
						lexical = aliasCur
					}
				}
				// Push the target as a new, non-aliasable segment.
				segs = append(segs, segment{rest: target})
				if target[0] == '/' {
					cur = root
				}
				continue
			}
		}

		// Alias chaining for components after a symlink (§4.2).
		if aliasCur.D != nil && k.hooks != nil && seg.aliasable && !next.D.IsNegative() {
			alias := k.hooks.AliasStep(t, aliasCur, comp, next)
			if alias == nil {
				aliasCur = PathRef{}
			} else {
				aliasCur = PathRef{Mnt: aliasCur.Mnt, D: alias}
				if final {
					// The requested path denotes the alias chain's
					// tail (§4.2 link-d).
					lexical = aliasCur
				}
			}
		}

		cur = next
	}

	if tracing {
		t0 = time.Now()
	}
	// Final validation.
	ino := cur.D.Inode()
	if ino == nil {
		if cur.D.IsNegative() {
			return PathRef{}, PathRef{}, &WalkFailure{Errno: fsapi.ENOENT, Anchor: cur}
		}
		if cur.D.Flags()&DUnhydrated != 0 {
			if err := k.hydrate(cur.D); err != nil {
				return PathRef{}, PathRef{}, err
			}
			ino = cur.D.Inode()
		}
	}
	if mustDir && (ino == nil || !ino.Mode().IsDir()) {
		return PathRef{}, PathRef{}, fsapi.ENOTDIR
	}
	if tracing {
		ph.Finalize += time.Since(t0)
		k.phases(ph)
	}
	if lexical.D == nil {
		lexical = cur
	}
	return cur, lexical, nil
}

// remainingComponents collects first (if non-empty) plus every component
// left in the segment stack's aliasable portion — the components below the
// failure anchor.
func remainingComponents(first string, segs []segment) []string {
	var out []string
	if first != "" {
		out = append(out, first)
	}
	// Only the original (bottom, aliasable) segment names real path
	// components the user asked for; symlink-target segments are internal.
	rest := segs[0].rest
	for {
		var c string
		c, rest = nextComponent(rest)
		if c == "" {
			break
		}
		out = append(out, c)
	}
	return out
}

// followDotDot implements ".." with mount climbing; staying put at the
// task's root (chroot barrier).
func (k *Kernel) followDotDot(t *Task, ns *Namespace, root PathRef, cur PathRef) PathRef {
	for {
		if cur.D == root.D && cur.Mnt == root.Mnt {
			return cur // at the task root: ".." is a no-op
		}
		if cur.D != cur.Mnt.root {
			p := cur.D.Parent()
			if p == nil {
				return cur
			}
			return PathRef{Mnt: cur.Mnt, D: p}
		}
		// At a mount root: climb to the mountpoint in the parent mount.
		if cur.Mnt.parent == nil {
			return cur // global root
		}
		cur = PathRef{Mnt: cur.Mnt.parent, D: cur.Mnt.mountpoint}
	}
}

// hydrate attaches the inode to an unhydrated dentry via GetNode — much
// cheaper than a directory search (§5.1).
func (k *Kernel) hydrate(d *Dentry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Flags()&DUnhydrated == 0 {
		return nil // raced with another hydration
	}
	info, err := d.sb.fs.GetNode(d.hintID)
	if err != nil {
		// The node vanished under us (concurrent FS-level change): treat
		// the dentry as stale.
		return fsapi.ESTALE
	}
	k.stats.cell().hydrations.Add(1)
	d.inode.Store(d.sb.inodeFor(info))
	d.clearFlags(DUnhydrated)
	return nil
}

// missLookup consults the low-level FS for (cur, comp) through an
// in-lookup placeholder dentry (the d_alloc_parallel singleflight): the
// first missing walk installs the placeholder under the parent's child
// map *before* calling the backend, and concurrent walks missing on the
// same name block on its resolution instead of issuing duplicate Lookup
// round trips. The placeholder resolves in place to a positive or
// negative dentry, or is removed on backend error so a later walk can
// retry.
func (k *Kernel) missLookup(cur PathRef, comp string) (*Dentry, error) {
	return k.missLookupTraced(cur, comp, nil)
}

// missLookupTraced is missLookup with an optional trace: the coalesce
// wait, bulk population, and backend consultation under this miss become
// stage events on tr (nil for untraced walks).
func (k *Kernel) missLookupTraced(cur PathRef, comp string, tr *telemetry.WalkTrace) (*Dentry, error) {
	parent := cur.D
	pIno := parent.Inode()
	if pIno == nil {
		return nil, errSeqRetry
	}

	parent.mu.Lock()
	if d, ok := parent.children[comp]; ok && !d.IsDead() {
		if d.Flags()&DInLookup != 0 {
			il := d.inLookup
			parent.mu.Unlock()
			return k.joinInLookup(d, il, comp, tr)
		}
		parent.mu.Unlock()
		if d.IsNegative() {
			return nil, fsapi.ENOENT
		}
		if d.Flags()&DUnhydrated != 0 {
			if err := k.hydrate(d); err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	if parent.IsDead() {
		// A teardown marks the directory dead before collecting its
		// children; a child installed now would outlive it.
		parent.mu.Unlock()
		return nil, errSeqRetry
	}
	// Won the slot. The placeholder is allocated only now — the losing
	// side of the old install race allocated a full dentry, registered it
	// with the LRU, then marked it dead and removed it, pure churn. While
	// DInLookup is set the dentry is visible only through the child map:
	// not in the hash table, not in the LRU, invisible to readdir
	// snapshots and audits.
	k.cacheMutBegin()
	d := k.newDentry(parent.sb, parent, comp)
	d.setFlags(DInLookup)
	il := &inLookupState{done: make(chan struct{})}
	d.inLookup = il
	if k.hooks != nil {
		d.fast = k.hooks.NewDentry(d)
	}
	parent.putChildLocked(comp, d)
	parent.mu.Unlock()
	k.cacheMutEnd()
	k.inLookupCount.Add(1)

	return k.resolveMiss(parent, pIno, comp, d, il, tr)
}

// joinInLookup coalesces a concurrent miss onto the in-flight lookup that
// owns the placeholder: wait for the winner's resolution and adopt its
// outcome — positive, ENOENT, or the backend's error — so K racing walks
// cost exactly one backend round trip.
func (k *Kernel) joinInLookup(d *Dentry, il *inLookupState, comp string, tr *telemetry.WalkTrace) (*Dentry, error) {
	sc := k.stats.cell()
	sc.missCoalesced.Add(1)
	tel := k.journal()
	select {
	case <-il.done:
		// Resolved between our child-map read and here: adopt for free.
		if tel != nil {
			tel.Emit(telemetry.JCoalesce, d.ID(), 0, "")
		}
		tr.Event(telemetry.EvCoalesceWait, comp+" (resolved)")
	default:
		sc.inLookupWaits.Add(1)
		if tel != nil {
			tel.Emit(telemetry.JCoalesce, d.ID(), 0, "wait")
		}
		waitStart := time.Now()
		<-il.done
		wait := time.Since(waitStart)
		if tel != nil {
			tel.Record(telemetry.HistMissWait, wait)
		}
		tr.EventDur(telemetry.EvCoalesceWait, comp, wait)
		if tr != nil && tel != nil && wait > tel.SlowThreshold("") {
			tr.SetAnomaly(telemetry.AnomCoalesceWait)
		}
	}
	if il.err != nil {
		return nil, il.err
	}
	if d.IsDead() {
		return nil, errSeqRetry
	}
	if d.Flags()&DUnhydrated != 0 {
		if err := k.hydrate(d); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// resolveMiss is the winner's half of the in-lookup protocol: one backend
// consultation — a Lookup, or, once the miss streak under this directory
// crosses Config.BulkAfter on a CheapReadDir file system, one ReadDir
// that populates the whole directory — then an in-place resolution of the
// placeholder that wakes every coalesced waiter.
func (k *Kernel) resolveMiss(parent *Dentry, pIno *Inode, comp string, d *Dentry, il *inLookupState, tr *telemetry.WalkTrace) (*Dentry, error) {
	if streak := parent.missStreak.Add(1); k.bulkEligible(parent, streak) {
		if res, err, handled := k.bulkPopulate(parent, pIno, comp, d, il, tr); handled {
			return res, err
		}
	}

	k.stats.cell().fsLookups.Add(1)
	tel := k.tel.Load()
	var fsStart time.Time
	if tel.On() {
		fsStart = time.Now()
	}
	info, err := parent.sb.fs.Lookup(pIno.ID(), comp)
	if !fsStart.IsZero() {
		tel.Record(telemetry.HistFSLookup, time.Since(fsStart))
	}
	switch {
	case err == nil:
		return k.resolvePositive(parent, comp, d, il, parent.sb.inodeFor(info), fsapi.DirEntry{})
	case errors.Is(err, fsapi.ENOENT):
		k.resolveNegative(parent, comp, d, il)
		return nil, fsapi.ENOENT
	default:
		k.resolveRemove(parent, comp, d, il, err)
		return nil, err
	}
}

// resolvePositive publishes the placeholder as a live positive dentry:
// inode (or, for bulk population, the listing entry's hints) attached,
// DInLookup cleared, hash table and LRU entered. The injected
// testSkipInLookupClear bug leaves the flag set so the auditor's
// dlht_in_lookup cross-check has a real leak to catch.
func (k *Kernel) resolvePositive(parent *Dentry, comp string, d *Dentry, il *inLookupState, ino *Inode, hint fsapi.DirEntry) (*Dentry, error) {
	k.cacheMutBegin()
	parent.mu.Lock()
	if d.IsDead() {
		// A concurrent teardown (rename residual, subtree kill) reached
		// the placeholder: the outcome is stale, everyone retries.
		parent.mu.Unlock()
		k.cacheMutEnd()
		if ino != nil {
			ino.sb.dropName(ino)
		}
		k.finishInLookup(il, errSeqRetry)
		return nil, errSeqRetry
	}
	if ino != nil {
		d.inode.Store(ino)
	} else {
		d.hintID = hint.ID
		d.hintType = hint.Type
		d.setFlags(DUnhydrated)
	}
	if !k.testSkipInLookupClear {
		d.clearFlags(DInLookup)
	}
	parent.mu.Unlock()
	k.table.insert(parent.id, comp, d)
	k.lruAddLive(d)
	k.cacheMutEnd()
	k.finishInLookup(il, nil)
	k.maybeShrink()
	if d.Flags()&DUnhydrated != 0 {
		if err := k.hydrate(d); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// resolveNegative resolves the placeholder to a negative dentry (the
// name is authoritatively absent), or removes it when this file system
// may not cache negatives.
func (k *Kernel) resolveNegative(parent *Dentry, comp string, d *Dentry, il *inLookupState) {
	if !k.negativesAllowed(parent.sb) {
		k.resolveRemove(parent, comp, d, il, fsapi.ENOENT)
		return
	}
	k.cacheMutBegin()
	parent.mu.Lock()
	if d.IsDead() {
		parent.mu.Unlock()
		k.cacheMutEnd()
		k.finishInLookup(il, errSeqRetry)
		return
	}
	d.setFlags(DNegative)
	if !k.testSkipInLookupClear {
		d.clearFlags(DInLookup)
	}
	parent.mu.Unlock()
	k.table.insert(parent.id, comp, d)
	k.lruAddLive(d)
	k.cacheMutEnd()
	k.finishInLookup(il, fsapi.ENOENT)
	k.maybeShrink()
}

// resolveRemove abandons the placeholder (backend error, or a negative
// outcome that may not be cached): the slot is vacated so a later walk
// retries against the backend.
func (k *Kernel) resolveRemove(parent *Dentry, comp string, d *Dentry, il *inLookupState, err error) {
	k.cacheMutBegin()
	parent.mu.Lock()
	d.setFlags(DDead)
	if cur, ok := parent.children[comp]; ok && cur == d {
		delete(parent.children, comp)
		parent.nkids.Add(-1)
		parent.listValid = false
	}
	parent.mu.Unlock()
	k.cacheMutEnd()
	k.finishInLookup(il, err)
	// The placeholder never entered the hash table or LRU; only its slab
	// slot needs reclaiming. Coalesced waiters still holding it are
	// inside their walks' epoch sections, which is exactly what the
	// grace period covers.
	k.retireLater(d, 0, "", false)
}

// finishInLookup publishes the outcome and wakes the coalesced waiters.
// Must be called exactly once per placeholder, after its cache state is
// final.
func (k *Kernel) finishInLookup(il *inLookupState, err error) {
	il.err = err
	k.inLookupCount.Add(-1)
	close(il.done)
}

// bulkEligible reports whether the miss streak under parent justifies
// readdir-driven bulk population: directory completeness must be on (the
// populated child set is about to become authoritative), BulkAfter
// positive and crossed, the backend must have declared ReadDir cheap,
// and the directory must not already be complete.
func (k *Kernel) bulkEligible(parent *Dentry, streak int32) bool {
	return k.cfg.DirCompleteness &&
		k.cfg.BulkAfter > 0 &&
		streak >= int32(k.cfg.BulkAfter) &&
		parent.sb.caps.CheapReadDir &&
		parent.Flags()&DComplete == 0
}

// bulkPopulate converts a per-name miss storm into one ReadDir: every
// child of parent is installed as an unhydrated dentry, the placeholder
// for comp resolves from its own listing entry (or negative when absent),
// and the directory is marked DIR_COMPLETE so each further miss under it
// is answered from the cache — O(children) round trips become one.
// handled=false (the ReadDir itself failed) falls back to the per-name
// Lookup.
func (k *Kernel) bulkPopulate(parent *Dentry, pIno *Inode, comp string, d *Dentry, il *inLookupState, tr *telemetry.WalkTrace) (res *Dentry, err error, handled bool) {
	startEpoch := k.lru.Epoch()
	tel := k.tel.Load()
	var fsStart time.Time
	if tel.On() {
		fsStart = time.Now()
	}
	ents, _, eof, rerr := parent.sb.fs.ReadDir(pIno.ID(), 0, -1)
	if !fsStart.IsZero() {
		dur := time.Since(fsStart)
		tel.Record(telemetry.HistFSLookup, dur)
		tr.EventDur(telemetry.EvBulkPopulate, fmt.Sprintf("%s: %d entries", comp, len(ents)), dur)
	}
	if rerr != nil {
		return nil, nil, false
	}
	parent.missStreak.Store(0)
	k.stats.cell().bulkPopulations.Add(1)

	var own *fsapi.DirEntry
	installed := 0
	k.cacheMutBegin()
	for i := range ents {
		if ents[i].Name == comp {
			own = &ents[i]
			continue
		}
		if k.installUnhydrated(parent, ents[i]) {
			installed++
		}
	}
	k.cacheMutEnd()

	// Resolve our own placeholder from its listing entry.
	if own != nil {
		res, err = k.resolvePositive(parent, comp, d, il, nil, *own)
		installed++
	} else {
		k.resolveNegative(parent, comp, d, il)
		res, err = nil, fsapi.ENOENT
	}

	// Completeness: only when the listing was exhaustive and no eviction
	// raced the population (the same guard File.ReadDir applies).
	if eof && k.lru.Epoch() == startEpoch {
		k.cacheMutBegin()
		parent.setFlags(DComplete)
		k.cacheMutEnd()
		if jt := k.journal(); jt != nil {
			jt.Emit(telemetry.JDirComplete, parent.ID(), 0, "bulk")
		}
	}
	if jt := k.journal(); jt != nil {
		jt.Emit(telemetry.JBulkPopulate, parent.ID(), int64(installed), "")
	}
	return res, err, true
}

// installUnhydrated installs one listing entry as an unhydrated child of
// parent, winning the slot under parent.mu before allocating anything (no
// dead-on-arrival dentries). Live incumbents — including other walks'
// in-lookup placeholders, which their own winners will resolve — are left
// alone. Reports whether a dentry was installed. The caller holds a
// cacheMut bracket.
func (k *Kernel) installUnhydrated(parent *Dentry, e fsapi.DirEntry) bool {
	parent.mu.Lock()
	if cur, ok := parent.children[e.Name]; (ok && !cur.IsDead()) || parent.IsDead() {
		parent.mu.Unlock()
		return false
	}
	d := k.newDentry(parent.sb, parent, e.Name)
	d.setFlags(DUnhydrated)
	d.hintID = e.ID
	d.hintType = e.Type
	if k.hooks != nil {
		d.fast = k.hooks.NewDentry(d)
	}
	parent.putChildLocked(e.Name, d)
	parent.mu.Unlock()
	k.lruAddLive(d)
	k.table.insert(parent.id, e.Name, d)
	return true
}

// lruAddLive charges a dentry that is already visible in its parent's
// child map to the LRU. A teardown that killed it in between ran its LRU
// removal before this add; undo the add then, or the LRU would keep a
// handle to a slot the teardown retires.
func (k *Kernel) lruAddLive(d *Dentry) {
	k.lru.add(d)
	if d.IsDead() {
		k.lru.remove(d)
	}
}

// negativesAllowed applies the §5.2 policy: pseudo file systems get
// negative dentries only under AggressiveNegatives.
func (k *Kernel) negativesAllowed(sb *Super) bool {
	if k.cfg.DisableNegatives {
		return false
	}
	if sb.caps.NoNegatives && !k.cfg.AggressiveNegatives {
		return false
	}
	return true
}

// installDedup inserts d under (parent, name) unless a concurrent walk won
// the race, in which case d is discarded in favor of the incumbent.
func (k *Kernel) installDedup(parent *Dentry, name string, d *Dentry) *Dentry {
	parent.mu.Lock()
	if cur, ok := parent.children[name]; ok && !cur.IsDead() {
		parent.mu.Unlock()
		// Lost the race: drop our speculative dentry.
		k.discardDentry(d)
		return cur
	}
	parent.putChildLocked(name, d)
	parent.mu.Unlock()
	k.table.insert(parent.id, name, d)
	k.maybeShrink()
	return d
}

// revalidate re-fetches a dentry's node from the low-level FS (the GETATTR
// round trip of an NFS-style client) and refreshes the cached inode.
// ESTALE (or any failure) means the server-side object is gone.
func (k *Kernel) revalidate(d *Dentry) error {
	ino := d.Inode()
	if ino == nil {
		if d.Flags()&DUnhydrated != 0 {
			return k.hydrate(d)
		}
		return fsapi.ESTALE
	}
	info, err := d.sb.fs.GetNode(ino.ID())
	if err != nil {
		return err
	}
	ino.applyInfo(info)
	return nil
}

// readLinkBody returns the symlink target, caching it in the dentry as
// Linux caches symlink bodies in the page cache.
func (k *Kernel) readLinkBody(d *Dentry) (string, error) {
	if v := d.linkBody.Load(); v != nil {
		return *v, nil
	}
	ino := d.Inode()
	if ino == nil {
		return "", errSeqRetry
	}
	target, err := d.sb.fs.ReadLink(ino.ID())
	if err != nil {
		return "", err
	}
	if target == "" {
		return "", fsapi.EINVAL
	}
	d.linkBody.Store(&target)
	return target, nil
}

// walkParent resolves everything but the last component, returning the
// parent directory and the final name. Used by create-style and
// remove-style operations.
func (t *Task) walkParent(path string) (PathRef, string, error) {
	return t.walkParentAt(PathRef{}, path)
}

// walkParentAt is walkParent starting at `at` for relative paths.
func (t *Task) walkParentAt(at PathRef, path string) (PathRef, string, error) {
	if path == "" {
		return PathRef{}, "", fsapi.ENOENT
	}
	if len(path) >= MaxPath {
		return PathRef{}, "", fsapi.ENAMETOOLONG
	}
	// Strip trailing slashes.
	end := len(path)
	for end > 0 && path[end-1] == '/' {
		end--
	}
	if end == 0 {
		// Path was "/" (or all slashes): no parent to speak of.
		return PathRef{}, "", fsapi.EBUSY
	}
	i := end - 1
	for i >= 0 && path[i] != '/' {
		i--
	}
	last := path[i+1 : end]
	if last == "." || last == ".." {
		return PathRef{}, "", fsapi.EINVAL
	}
	if len(last) > 255 {
		return PathRef{}, "", fsapi.ENAMETOOLONG
	}
	var dir string
	switch {
	case i < 0:
		dir = "."
	case i == 0:
		dir = "/"
	default:
		dir = path[:i]
	}
	ref, err := t.WalkFrom(at, dir, WalkDirectory)
	if err != nil {
		return PathRef{}, "", err
	}
	return ref, last, nil
}
