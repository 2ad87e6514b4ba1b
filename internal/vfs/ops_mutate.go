package vfs

import (
	"errors"

	"dircache/internal/fsapi"
	"dircache/internal/telemetry"
)

// lookupChild resolves one component under parent through the cache,
// consulting the low-level FS on a miss. It returns the positive dentry,
// or ENOENT (installing/charging negative state as configured). The §5.1
// completeness shortcut applies.
func (k *Kernel) lookupChild(parent PathRef, name string) (*Dentry, error) {
	if d := k.table.lookup(parent.D.id, name); d != nil && !d.IsDead() {
		k.stats.cell().cacheHits.Add(1)
		k.lru.touch(d)
		if d.IsNegative() {
			k.stats.cell().negativeHits.Add(1)
			return nil, fsapi.ENOENT
		}
		if d.Flags()&DUnhydrated != 0 {
			if err := k.hydrate(d); err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	// As in walkSlow: DComplete is only authoritative after a locked
	// re-read of the child map, since bulk population installs children
	// before setting the flag.
	if k.cfg.DirCompleteness && parent.D.Flags()&DComplete != 0 &&
		parent.D.child(name) == nil {
		k.stats.cell().completeShort.Add(1)
		return nil, fsapi.ENOENT
	}
	return k.missLookup(parent, name)
}

// FastChildLookup is the cache-only single-component step offered to the
// fastpath: the hash-table probe and §5.1 completeness shortcut of a
// slow-walk component step — including the parent's search-permission
// check, the one permission a memoized prefix check to the parent does
// not cover — but with no FS fallback and no negative installation.
// known=false means the cache cannot answer authoritatively (unhydrated,
// alias, or mounted-on child, a revalidating FS, a racing teardown, or a
// permission failure whose errno the slow walk must produce) and the
// caller falls back. With known=true the result is exactly what a slow
// walk's component step would yield: a live positive child (LRU-touched)
// or ENOENT/ENOTDIR from a negative child (returned alongside the errno)
// or, with a nil dentry, from a complete directory that lacks the name.
// A negative answer is not metered here: the caller counts it once, as
// a fastpath negative hit.
func (k *Kernel) FastChildLookup(t *Task, parent PathRef, name string) (*Dentry, error, bool) {
	pd := parent.D
	if pd == nil || pd.IsDead() {
		return nil, nil, false
	}
	ino := pd.Inode()
	if ino == nil || !ino.Mode().IsDir() {
		return nil, nil, false
	}
	if k.mayLookup(t.Cred(), parent.Mnt, ino) != nil {
		return nil, nil, false
	}
	sc := k.stats.cell()
	if d := k.table.lookup(pd.id, name); d != nil {
		if d.IsDead() || d.sb.caps.Revalidate ||
			d.Flags()&(DAlias|DUnhydrated|DMounted|DInLookup) != 0 {
			return nil, nil, false
		}
		sc.cacheHits.Add(1)
		k.lru.touch(d)
		if d.IsNegative() {
			if d.Flags()&DNotDir != 0 {
				return d, fsapi.ENOTDIR, true
			}
			return d, fsapi.ENOENT, true
		}
		return d, nil, true
	}
	// As in walkSlow: DComplete is only authoritative after a re-read of
	// the child map (bulk population installs children before setting it).
	if k.cfg.DirCompleteness && pd.Flags()&DComplete != 0 &&
		pd.child(name) == nil {
		return nil, fsapi.ENOENT, true
	}
	return nil, nil, false
}

// childDentryForCreate returns the cached dentry for (parent, name) even if
// negative, or nil when nothing is cached. Used by create-type operations
// to decide between positivizing a negative dentry and allocating afresh.
// An in-lookup placeholder owns the slot until its walk's backend call
// resolves; creating against it would mistake a transient placeholder for
// an existing entry, so we wait for the resolution and re-read.
func (k *Kernel) childDentryForCreate(parent *Dentry, name string) *Dentry {
	if d := k.table.lookup(parent.id, name); d != nil && !d.IsDead() {
		return d
	}
	d := parent.child(name)
	var waited *inLookupState
	for d != nil && d.Flags()&DInLookup != 0 {
		il := d.inLookup
		if il == waited {
			break // resolved but flag leaked (injected test bug)
		}
		waited = il
		<-il.done
		d = parent.child(name)
	}
	if d != nil && d.IsDead() {
		return nil
	}
	return d
}

// positivize flips a negative dentry to positive after a successful
// creation at its path. Per §5.2, negative children are evicted unless the
// new object is a (fresh, hence empty and complete) directory.
func (k *Kernel) positivize(d *Dentry, ino *Inode) {
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	isDir := ino.Mode().IsDir()
	if d.Flags()&DDeepNegative != 0 || d.nkids.Load() > 0 {
		// A deep negative's memoized prefix checks (and those of kept
		// negative children) were earned while ancestors on its path did
		// not exist; the materialized path has real permissions that now
		// gate them — invalidate before the dentry goes positive.
		end := k.beginMutation(d, InvalPerm)
		defer end()
	}
	if d.Flags()&DDeepNegative != 0 {
		// Deep negatives never entered the slow-walk hash table (the
		// walk used to stop above them); as a positive dentry it must be
		// findable there.
		pn := d.pn.Load()
		if pn.parent != nil && k.table.lookup(pn.parent.id, pn.name) != d {
			k.table.insert(pn.parent.id, pn.name, d)
		}
	}
	d.mu.Lock()
	kids := make([]*Dentry, 0, len(d.children))
	if !isDir {
		for _, c := range d.children {
			kids = append(kids, c)
		}
	}
	d.inode.Store(ino)
	d.clearFlags(DNameDropped)
	d.mu.Unlock()
	for _, c := range kids {
		k.killSubtreeLocked(c)
	}
	d.clearFlags(DNegative | DDeepNegative | DNotDir)
	if k.hooks != nil {
		k.hooks.OnRecycle(d)
	}
	if isDir && k.cfg.DirCompleteness {
		d.setFlags(DComplete)
		if tel := k.journal(); tel != nil {
			tel.Emit(telemetry.JDirComplete, d.ID(), 0, "create")
		}
	}
	if p := d.Parent(); p != nil {
		p.invalidateList()
	}
}

// killDentryKeepComplete removes d (and its cached descendants) from the
// cache without clearing the parent's completeness (used when the removal
// mirrors a real FS change, so the cache remains an exact view).
func (k *Kernel) killDentryKeepComplete(d *Dentry) {
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	k.killSubtreeLocked(d)
}

// killSubtreeLocked tears down d and every cached descendant inside the
// caller's cacheMut bracket: one bracket and one aggregate journal event
// for the whole subtree instead of one per dentry (rm -r teardown used to
// pay a bracket + emission per child). Per-dentry hash-table/LRU removal
// and the OnEvict hook are structurally required and stay. Returns the
// number of dentries killed.
func (k *Kernel) killSubtreeLocked(d *Dentry) int {
	n := k.killRecurse(d)
	k.stats.cell().evictions.Add(int64(n))
	if tel := k.journal(); tel != nil {
		tel.Emit(telemetry.JEvict, d.ID(), int64(n), "teardown")
	}
	return n
}

// killRecurse marks a subtree dead. Each dentry is marked before its
// children are collected: installers refuse a dead parent under its lock,
// so no child can slip in after the collection and outlive it. Only the
// coherence-critical work happens here: the dead flag (lock-free readers
// discard),
// parent detach (child maps are authoritative), LRU removal (capacity
// accounting), and the OnEvict hook (seq bump for fastpath validity).
// The expensive remainder — hash-chain unlink, DLHT residue, slab-slot
// retirement — is deferred to the sweeper, which is what makes rm -r's
// teardown O(1) per dentry on the operation's critical path.
func (k *Kernel) killRecurse(d *Dentry) int {
	n := 1
	d.setFlags(DDead)
	// Children include deep negatives (unlink of a file with cached
	// ENOTDIR children) and aliases (children of a symlink).
	d.EachChild(func(c *Dentry) { n += k.killRecurse(c) })
	pn := d.pn.Load()
	var pid uint64
	if pn.parent != nil {
		pid = pn.parent.id
		pn.parent.detachChild(pn.name, d)
	}
	k.lru.remove(d)
	if k.hooks != nil {
		k.hooks.OnEvict(d)
	}
	k.retireLater(d, pid, pn.name, pn.parent != nil)
	return n
}

// discardDentry throws away a freshly allocated dentry that lost an
// install race: it was registered with the LRU but never entered the
// hash table or a child map, so only the LRU entry and the slab slot
// need reclaiming.
func (k *Kernel) discardDentry(d *Dentry) {
	d.setFlags(DDead)
	k.lru.remove(d)
	k.retireLater(d, 0, "", false)
}

// installNewChild creates and wires a positive dentry for a just-created
// node. If a negative dentry is cached at the name it is positivized
// instead.
func (k *Kernel) installNewChild(parent PathRef, name string, info fsapi.NodeInfo) *Dentry {
	sb := parent.D.sb
	ino := sb.inodeFor(info)
	if d := k.childDentryForCreate(parent.D, name); d != nil {
		if d.IsNegative() {
			k.positivize(d, ino)
			return d
		}
		sb.dropName(ino)
		return d // concurrent creation already installed it
	}
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	d := k.allocDentry(sb, parent.D, name, ino)
	if info.Mode.IsDir() && k.cfg.DirCompleteness {
		d.setFlags(DComplete)
	}
	res := k.installDedup(parent.D, name, d)
	if res == d && info.Mode.IsDir() && k.cfg.DirCompleteness {
		if tel := k.journal(); tel != nil {
			tel.Emit(telemetry.JDirComplete, d.ID(), 0, "create")
		}
	}
	return res
}

// Create makes a regular file (open(O_CREAT|O_EXCL) without the handle).
func (t *Task) Create(path string, mode fsapi.Mode) error {
	f, err := t.Open(path, O_CREAT|O_EXCL|O_WRONLY, mode)
	if err != nil {
		return err
	}
	return f.Close()
}

// Mkdir creates a directory. The new directory is born DIR_COMPLETE when
// completeness caching is on (§5.1).
func (t *Task) Mkdir(path string, mode fsapi.Mode) error {
	k := t.k
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	parent, name, err := t.walkParent(path)
	if err != nil {
		return err
	}
	c := t.Cred()
	if err := k.mayCreate(c, parent.Mnt, parent.D.Inode()); err != nil {
		return err
	}
	if err := mayWriteMnt(parent.Mnt); err != nil {
		return err
	}
	unlock := k.lockBig()
	defer unlock()
	if d := k.childDentryForCreate(parent.D, name); d != nil && !d.IsNegative() {
		return fsapi.EEXIST
	}
	info, err := parent.D.sb.fs.Mkdir(parent.D.Inode().ID(), name, mode, c.UID, c.GID)
	if err != nil {
		return err
	}
	k.installNewChild(parent, name, info)
	k.refreshInode(parent.D)
	return nil
}

// Symlink creates a symbolic link at path pointing to target.
func (t *Task) Symlink(target, path string) error {
	k := t.k
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	parent, name, err := t.walkParent(path)
	if err != nil {
		return err
	}
	c := t.Cred()
	if err := k.mayCreate(c, parent.Mnt, parent.D.Inode()); err != nil {
		return err
	}
	if err := mayWriteMnt(parent.Mnt); err != nil {
		return err
	}
	unlock := k.lockBig()
	defer unlock()
	if d := k.childDentryForCreate(parent.D, name); d != nil && !d.IsNegative() {
		return fsapi.EEXIST
	}
	info, err := parent.D.sb.fs.Symlink(parent.D.Inode().ID(), name, target, c.UID, c.GID)
	if err != nil {
		return err
	}
	k.installNewChild(parent, name, info)
	k.refreshInode(parent.D)
	return nil
}

// Link creates a hard link newpath referring to oldpath's inode.
func (t *Task) Link(oldpath, newpath string) error {
	k := t.k
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	oldRef, err := t.Walk(oldpath, WalkNoFollow)
	if err != nil {
		return err
	}
	oldIno := oldRef.D.Inode()
	if oldIno == nil {
		return fsapi.ENOENT
	}
	if oldIno.Mode().IsDir() {
		return fsapi.EPERM
	}
	parent, name, err := t.walkParent(newpath)
	if err != nil {
		return err
	}
	if parent.Mnt.sb != oldRef.Mnt.sb {
		return fsapi.EXDEV
	}
	c := t.Cred()
	if err := k.mayCreate(c, parent.Mnt, parent.D.Inode()); err != nil {
		return err
	}
	if err := mayWriteMnt(parent.Mnt); err != nil {
		return err
	}
	unlock := k.lockBig()
	defer unlock()
	if d := k.childDentryForCreate(parent.D, name); d != nil && !d.IsNegative() {
		return fsapi.EEXIST
	}
	info, err := parent.D.sb.fs.Link(parent.D.Inode().ID(), name, oldIno.ID())
	if err != nil {
		return err
	}
	k.installNewChild(parent, name, info)
	oldIno.applyInfo(info)
	return nil
}

// Unlink removes a file. With AggressiveNegatives the dentry survives as a
// negative (§5.2: "keep negative dentries after a file is removed, in case
// the path is reused later").
func (t *Task) Unlink(path string) error {
	k := t.k
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	defer k.reapSome()
	parent, name, err := t.walkParent(path)
	if err != nil {
		return err
	}
	d, err := k.lookupChild(parent, name)
	if err != nil {
		return err
	}
	ino := d.Inode()
	if ino.Mode().IsDir() {
		return fsapi.EISDIR
	}
	c := t.Cred()
	if err := k.mayDelete(c, parent.Mnt, parent.D.Inode(), ino); err != nil {
		return err
	}
	if err := mayWriteMnt(parent.Mnt); err != nil {
		return err
	}
	// The dentry flips negative in place: its path and prefix checks stay
	// valid, so no fastpath shootdown is needed (§3.2 invalidates only
	// path- or permission-changing mutations) — unless cached children
	// (ENOTDIR deep negatives, symlink aliases) hang below it.
	if d.nkids.Load() > 0 {
		end := k.beginMutation(d, InvalUnlink)
		defer end()
	}
	unlock := k.lockBig()
	defer unlock()
	if err := parent.D.sb.fs.Unlink(parent.D.Inode().ID(), name); err != nil {
		return err
	}
	k.dentryGone(d, ino)
	k.refreshInode(parent.D)
	return nil
}

// Rmdir removes an empty directory.
func (t *Task) Rmdir(path string) error {
	k := t.k
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	defer k.reapSome()
	parent, name, err := t.walkParent(path)
	if err != nil {
		return err
	}
	d, err := k.lookupChild(parent, name)
	if err != nil {
		return err
	}
	ino := d.Inode()
	if !ino.Mode().IsDir() {
		return fsapi.ENOTDIR
	}
	c := t.Cred()
	if err := k.mayDelete(c, parent.Mnt, parent.D.Inode(), ino); err != nil {
		return err
	}
	if err := mayWriteMnt(parent.Mnt); err != nil {
		return err
	}
	if d.refs.Load() > 0 {
		return fsapi.EBUSY
	}
	// Like unlink: the removed directory flips negative in place. Cached
	// (necessarily negative) children are torn down individually below;
	// a full shootdown is only needed when they exist.
	if d.nkids.Load() > 0 {
		end := k.beginMutation(d, InvalUnlink)
		defer end()
	}
	unlock := k.lockBig()
	defer unlock()
	if err := parent.D.sb.fs.Rmdir(parent.D.Inode().ID(), name); err != nil {
		return err
	}
	// The FS guaranteed emptiness; cached children can only be negatives —
	// drop them along with the dentry or its negative conversion.
	k.dentryGone(d, ino)
	k.refreshInode(parent.D)
	return nil
}

// dentryGone handles the cache side of a successful unlink/rmdir: the
// dentry either becomes a negative (aggressive mode, or idle in baseline
// per Linux behaviour) or leaves the cache.
func (k *Kernel) dentryGone(d *Dentry, ino *Inode) {
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	keepNegative := k.cfg.AggressiveNegatives ||
		(!k.cfg.DisableNegatives && d.refs.Load() == 0 && d.nkids.Load() == 0)
	if keepNegative && !k.negativesAllowed(d.sb) {
		keepNegative = false
	}
	if keepNegative {
		// Drop (deep-negative / alias) children: their anchor semantics
		// change with the node gone. Each child subtree falls inside this
		// function's cacheMut bracket — one bracket for the whole teardown.
		d.EachChild(func(c *Dentry) { k.killSubtreeLocked(c) })
		wasComplete := d.Flags()&DComplete != 0
		d.dropName()
		d.mu.Lock()
		d.inode.Store(nil)
		d.setFlags(DNegative)
		d.clearFlags(DComplete | DUnhydrated)
		d.mu.Unlock()
		if wasComplete {
			if tel := k.journal(); tel != nil {
				tel.Emit(telemetry.JDirIncomplete, d.ID(), 0, "gone")
			}
		}
		// The dentry flips negative in place: the parent's cached
		// listing no longer reflects its children.
		if p := d.Parent(); p != nil {
			p.invalidateList()
		}
		if k.hooks != nil {
			k.hooks.OnRecycle(d)
		}
	} else {
		k.killDentryKeepComplete(d)
	}
	// Refresh or forget the inode: another hard link may keep it alive.
	if info, err := ino.sb.fs.GetNode(ino.ID()); err == nil {
		ino.applyInfo(info)
	} else {
		ino.nlink.Store(0)
		ino.sb.forgetInode(ino.ID())
	}
}

// refreshInode re-reads a directory's metadata after a mutation beneath it
// (size/mtime changed).
func (k *Kernel) refreshInode(d *Dentry) {
	ino := d.Inode()
	if ino == nil {
		return
	}
	if info, err := d.sb.fs.GetNode(ino.ID()); err == nil {
		ino.applyInfo(info)
	}
}

// Rename moves oldpath to newpath (same mount only), carrying the paper's
// §3.2 coherence protocol: hooks invalidate the subtree before the change,
// the global rename seqlock blocks optimistic walks during it, and the
// dentry moves atomically with respect to the hash table.
func (t *Task) Rename(oldpath, newpath string) error {
	k := t.k
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	defer k.reapSome()
	oldParent, oldName, err := t.walkParent(oldpath)
	if err != nil {
		return err
	}
	newParent, newName, err := t.walkParent(newpath)
	if err != nil {
		return err
	}
	if oldParent.Mnt != newParent.Mnt {
		return fsapi.EXDEV
	}
	d, err := k.lookupChild(oldParent, oldName)
	if err != nil {
		return err
	}
	c := t.Cred()
	if err := k.mayDelete(c, oldParent.Mnt, oldParent.D.Inode(), d.Inode()); err != nil {
		return err
	}
	if err := mayWriteMnt(oldParent.Mnt); err != nil {
		return err
	}

	// Resolve any existing target (for permission + cache teardown).
	var target *Dentry
	if td, err := k.lookupChild(newParent, newName); err == nil {
		target = td
	} else if !errors.Is(err, fsapi.ENOENT) {
		return err
	}
	if target == d {
		return nil // same inode via the same dentry: no-op
	}
	if target != nil {
		if err := k.mayDelete(c, newParent.Mnt, newParent.D.Inode(), target.Inode()); err != nil {
			return err
		}
		// Renaming a directory onto a path inside itself etc. is left to
		// the FS's ENOTEMPTY/EISDIR checks; loop prevention:
		if d.Inode().Mode().IsDir() && isAncestor(d, newParent.D) {
			return fsapi.EINVAL
		}
	} else {
		if err := k.mayCreate(c, newParent.Mnt, newParent.D.Inode()); err != nil {
			return err
		}
		if d.Inode().Mode().IsDir() && isAncestor(d, newParent.D) {
			return fsapi.EINVAL
		}
	}

	// §3.2: shoot down cached fastpath state before the change.
	endOld := k.beginMutation(d, InvalRename)
	defer endOld()
	if target != nil {
		endTgt := k.beginMutation(target, InvalUnlink)
		defer endTgt()
	}

	unlock := k.lockBig()
	defer unlock()

	k.renameWriteLock()
	defer k.renameWriteUnlock()

	if err := oldParent.D.sb.fs.Rename(oldParent.D.Inode().ID(), oldName,
		newParent.D.Inode().ID(), newName); err != nil {
		return err
	}

	// Cache side. Tear down the replaced target first.
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	if target != nil {
		tIno := target.Inode()
		target.setFlags(DDead)
		target.EachChild(func(c *Dentry) { k.killSubtreeLocked(c) })
		newParent.D.detachChild(newName, target)
		k.lru.remove(target)
		if tel := k.journal(); tel != nil {
			tel.Emit(telemetry.JEvict, target.ID(), 0, "rename-target")
		}
		if k.hooks != nil {
			k.hooks.OnEvict(target)
		}
		k.retireLater(target, newParent.D.id, newName, true)
		if tIno != nil {
			if info, err := tIno.sb.fs.GetNode(tIno.ID()); err == nil {
				tIno.applyInfo(info)
			} else {
				tIno.sb.forgetInode(tIno.ID())
			}
		}
	}

	// Move d: (oldParent, oldName) → (newParent, newName), d_move-style.
	k.table.remove(oldParent.D.id, oldName, d)
	oldParent.D.detachChild(oldName, d)
	d.pn.Store(&parentName{parent: newParent.D, name: newName})
	// Any other live dentry at the destination name (not a live target —
	// those were handled above) must die before d takes the name: a
	// residual negative/unhydrated entry would shadow d, and an in-lookup
	// placeholder a concurrent walk installed would be orphaned by the
	// overwrite — live, with children, but out of every child-map walk.
	for {
		newParent.D.mu.Lock()
		resid := newParent.D.children[newName]
		if resid == nil || resid.IsDead() {
			newParent.D.putChildLocked(newName, d)
			newParent.D.mu.Unlock()
			break
		}
		newParent.D.mu.Unlock()
		k.killSubtreeLocked(resid)
	}
	k.table.insert(newParent.D.id, newName, d)

	// §5.2: the old path is now known absent — keep it as a negative.
	if k.cfg.AggressiveNegatives && k.negativesAllowed(oldParent.D.sb) {
		neg := k.allocDentry(oldParent.D.sb, oldParent.D, oldName, nil)
		k.installDedup(oldParent.D, oldName, neg)
	}

	k.refreshInode(oldParent.D)
	k.refreshInode(newParent.D)
	k.refreshInode(d)
	return nil
}

// isAncestor reports whether a is an ancestor of (or equal to) b in the
// dentry tree.
func isAncestor(a, b *Dentry) bool {
	for cur := b; cur != nil; cur = cur.Parent() {
		if cur == a {
			return true
		}
	}
	return false
}

// Open opens (optionally creating) a file and returns a handle.
func (t *Task) Open(path string, flags OpenFlag, mode fsapi.Mode) (*File, error) {
	return t.openAt(PathRef{}, path, flags, mode)
}

// OpenAt opens path relative to the open directory handle dirf (the
// openat(2) shape). A nil dirf or absolute path behaves like Open.
func (t *Task) OpenAt(dirf *File, path string, flags OpenFlag, mode fsapi.Mode) (*File, error) {
	if dirf == nil || (len(path) > 0 && path[0] == '/') {
		return t.openAt(PathRef{}, path, flags, mode)
	}
	if !dirf.ref.D.IsDir() {
		return nil, fsapi.ENOTDIR
	}
	return t.openAt(dirf.ref, path, flags, mode)
}

// openAt implements Open starting at `at` for relative paths.
func (t *Task) openAt(at PathRef, path string, flags OpenFlag, mode fsapi.Mode) (*File, error) {
	k := t.k
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	c := t.Cred()

	var ref PathRef
	if flags&O_CREAT != 0 {
		parent, name, err := t.walkParentAt(at, path)
		if err != nil {
			return nil, err
		}
		unlock := k.lockBig()
		d, cerr := k.lookupChild(parent, name)
		switch {
		case cerr == nil:
			unlock()
			if flags&O_EXCL != 0 {
				return nil, fsapi.EEXIST
			}
			ref = PathRef{Mnt: parent.Mnt, D: d}
			if d.IsSymlink() {
				if flags&O_NOFOLLOW != 0 {
					return nil, fsapi.ELOOP
				}
				// Re-walk through the link.
				ref, err = t.WalkFrom(at, path, 0)
				if err != nil {
					return nil, err
				}
			}
		case errors.Is(cerr, fsapi.ENOENT):
			if err := k.mayCreate(c, parent.Mnt, parent.D.Inode()); err != nil {
				unlock()
				return nil, err
			}
			if err := mayWriteMnt(parent.Mnt); err != nil {
				unlock()
				return nil, err
			}
			info, err := parent.D.sb.fs.Create(parent.D.Inode().ID(), name, mode, c.UID, c.GID)
			if err != nil {
				unlock()
				if errors.Is(err, fsapi.EEXIST) && flags&O_EXCL == 0 {
					// Lost a create race benignly; reopen.
					return t.openAt(at, path, flags&^O_CREAT, mode)
				}
				return nil, err
			}
			d = k.installNewChild(parent, name, info)
			k.refreshInode(parent.D)
			unlock()
			ref = PathRef{Mnt: parent.Mnt, D: d}
		default:
			unlock()
			return nil, cerr
		}
	} else {
		var fl WalkFlags
		if flags&O_NOFOLLOW != 0 {
			fl |= WalkNoFollow
		}
		if flags&O_DIRECTORY != 0 {
			fl |= WalkDirectory
		}
		var err error
		ref, err = t.WalkFrom(at, path, fl)
		if err != nil {
			return nil, err
		}
	}

	ino := ref.D.Inode()
	if ino == nil {
		return nil, fsapi.ENOENT
	}
	mode2 := ino.Mode()
	if mode2.IsSymlink() {
		return nil, fsapi.ELOOP // O_NOFOLLOW on a symlink
	}
	if flags&O_DIRECTORY != 0 && !mode2.IsDir() {
		return nil, fsapi.ENOTDIR
	}
	if mode2.IsDir() && flags&O_ACCMODE != O_RDONLY {
		return nil, fsapi.EISDIR
	}
	if err := k.permission(c, ref.Mnt, ino, maskForOpen(flags)); err != nil {
		return nil, err
	}
	if flags&O_ACCMODE != O_RDONLY {
		if err := mayWriteMnt(ref.Mnt); err != nil {
			return nil, err
		}
	}
	// Pathname mediation (AppArmor-style LSMs): consulted once per open
	// with the object's canonical path, outside the lookup fastpath.
	if !k.lsm.Empty() {
		if err := k.lsm.CheckPath(c, ref.D.PathTo(), maskForOpen(flags)); err != nil {
			return nil, err
		}
	}
	if flags&O_TRUNC != 0 && mode2.IsRegular() && flags&O_ACCMODE != O_RDONLY {
		var zero int64
		info, err := ref.D.sb.fs.SetAttr(ino.ID(), fsapi.SetAttr{Size: &zero})
		if err != nil {
			return nil, err
		}
		ino.applyInfo(info)
	}

	f := &File{t: t, ref: ref, ino: ino, flags: flags}
	ref.D.Ref()
	if r, ok := ref.D.sb.fs.(fsapi.NodeRetainer); ok {
		r.RetainNode(ino.ID())
		f.release = func() { r.ReleaseNode(ino.ID()) }
	}
	return f, nil
}
