package core

import (
	"sync"
	"sync/atomic"
	"time"

	"dircache/internal/cred"
	"dircache/internal/sig"
	"dircache/internal/slab"
	"dircache/internal/stripe"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// Config selects the fastpath behaviour.
type Config struct {
	// Seed keys the signature hash function; 0 draws a per-Core unique
	// seed (the "random key at boot" of §3.3). Fix it only in tests.
	Seed uint64
	// PCCBytes sizes each per-credential prefix check cache (default
	// 64 KiB, the paper's evaluated size).
	PCCBytes int
	// PCCMaxBytes caps dynamic PCC growth (the production resize policy
	// the paper leaves as future work). 0 = 32x PCCBytes; set equal to
	// PCCBytes to pin the size.
	PCCMaxBytes int
	// DeepNegatives enables §5.2's deep negative dentries (negative
	// children under negative dentries and ENOTDIR dentries under files).
	DeepNegatives bool
	// SymlinkAliases enables §4.2's symlink alias dentries.
	SymlinkAliases bool
	// LexicalDotDot selects Plan 9 lexical ".." semantics instead of
	// Linux's extra per-dot-dot permission lookup (§4.2).
	LexicalDotDot bool
	// ForcePCCMiss makes every final PCC probe miss, exercising the full
	// fastpath cost followed by the slow walk — the "fastpath miss +
	// slowpath" worst case of Figure 6. Benchmarks only.
	ForcePCCMiss bool
	// AdmitAfter defers DLHT insertion and PCC memoization until a dentry's
	// Nth slow-path touch (admission control: single-touch paths — tar
	// extraction, rm -r — never pay population cost). 0 selects the default
	// of 2; 1 or less admits on first touch (the original behaviour).
	// Scan-shaped walks (single-component lookups under a DIR_COMPLETE
	// parent, i.e. readdir-then-stat streaks) bypass the counter and admit
	// eagerly regardless.
	AdmitAfter int
	// DirShortcuts enables directory shortcut resume (DESIGN §5f): the
	// fastpath seeds its scan from the memoized state of the deepest
	// already-cached ancestor of the target path, so warm per-lookup
	// hashing stops scaling with path depth (cf. Stage Lookup's directory
	// shortcuts). Slow walks always start at the walk start.
	DirShortcuts bool
}

// Stats are fastpath counters.
type Stats struct {
	TryFast        int64 // fastpath attempts
	Hits           int64 // full fastpath hits (DLHT + PCC)
	NegHits        int64 // hits that answered ENOENT/ENOTDIR
	DLHTMiss       int64 // fell back: signature not in DLHT
	PCCMiss        int64 // fell back: prefix check not memoized/stale
	DotDotChecks   int64 // extra per-".." fastpath permission lookups
	Populations    int64 // DLHT+PCC population events
	Invalidation   int64 // subtree invalidation walks
	StaleTokens    int64 // populations skipped due to concurrent mutation
	AliasCreated   int64
	DeepNegCreated int64
	SeqBumps       int64 // per-dentry version bumps (roots + descendants)
	DLHTSweeps     int64 // dead nodes reclaimed by DLHT inserts
	PCCFlushes     int64 // whole-PCC invalidations
	PCCResizes     int64 // PCC generation copies

	// Admission control + batched shootdown (zero when AdmitAfter <= 1
	// and no bulk mutations ran).
	Admitted        int64 // populations allowed (Nth touch or bypass)
	Deferred        int64 // populations declined pending more touches
	Bypassed        int64 // scan-shaped walks admitted eagerly
	BatchShootdowns int64 // subtree invalidations taken as one range mark
	LazyShootdowns  int64 // stale entries discarded lazily by probes/sweeps

	// Directory shortcuts (zero when Config.DirShortcuts is off).
	ShortcutResumes    int64 // fastpath scans seeded from a cached ancestor
	ShortcutDepthSaved int64 // path components skipped by those seeds
	HashedBytes        int64 // bytes fed to the path hash (all paths)
	ChildHops          int64 // DLHT misses answered from the base dir's cached children
}

// statsCell holds the fastpath counters. The miss counters sit on the
// TryFast fallback path, which concurrent walks hit together, so they are
// striped (stripe.Int64) like the kernel's counters rather than shared
// atomics.
type statsCell struct {
	dlhtMiss, pccMiss, dotDotChecks stripe.Int64

	// Shortcut-resume counters ride the warm fastpath (seeded scans) and
	// every scan feeds hashedBytes, so all three are striped too.
	shortcutResumes, shortcutDepthSaved, hashedBytes stripe.Int64

	// childHops counts fastpath answers taken directly from the base
	// directory's cached children on a DLHT miss (hot path too).
	childHops stripe.Int64

	populations, invalidations, staleTokens, aliasCreated,
	deepNegCreated, seqBumps atomic.Int64

	admitted, deferred, bypassed,
	batchShootdowns, lazyShootdowns atomic.Int64
}

// fastDentry is the per-dentry fastpath state — the paper's struct
// fast_dentry (Figure 5): the resumable signature state of the dentry's
// canonical path, the signature and DLHT index, a version counter (seq)
// that invalidates PCC entries, the mount pointer, and — for symlinks —
// the cached resolution target.
type fastDentry struct {
	// self is the dentry's slot in the core's fast-dentry arena, kept so
	// OnReclaim can retire it alongside the dentry's own slot.
	self slab.Ref

	seq atomic.Uint64

	// validGen is the batch-shootdown generation this dentry's fastpath
	// state is known valid against. The hot-path freshness check is one
	// load and compare against Core.shootGen; only a mismatch walks
	// ancestors looking for a newer shootMark (see Core.fresh).
	validGen atomic.Uint64

	// shootMark, when > 0, records the batch-shootdown generation at which
	// this dentry was the root of a range shootdown: every descendant whose
	// validGen predates the mark holds pre-mutation state and must be
	// lazily discarded before use.
	shootMark atomic.Uint64

	// touches counts slow-path populations declined by admission control;
	// reset when the dentry changes identity (negative <-> positive).
	touches atomic.Uint32

	mu       sync.Mutex
	hasState bool
	state    sig.State
	idx      uint16
	sg       sig.Signature
	inTable  *DLHT // the one DLHT currently holding this dentry

	// statePtr is a lock-free snapshot of state for the TryFast hot path
	// (nil when no valid state); writers keep it in sync under mu.
	statePtr atomic.Pointer[sig.State]

	// mntP records the mount the signature was computed under, so a
	// fastpath hit can report mount options without a tree walk (§4.3).
	mntP atomic.Pointer[vfs.Mount]

	// target caches a followed symlink's (or alias's) resolution (§4.2
	// stores the target-path signature; a generation-tagged dentry ref
	// pinned to the target's version counter is equivalent: any structural
	// or permission change to the target bumps its seq and stales this,
	// and slot recycling makes the packed ref stop resolving). 0 = none.
	target    atomic.Uint64
	targetSeq atomic.Uint64

	// pubSeq records seq as of the moment the current table entry was
	// published. The coherence invariant the auditor checks: a live
	// dentry in a DLHT has pubSeq == seq — every seq bump either removes
	// the entry (shootdown, under mu) or marks the dentry dead (evict).
	// Audit-only, so it sits at the tail, off TryFast's cache lines.
	pubSeq uint64 // guarded by mu
}

// reset re-initializes a fast-dentry slot for a new tenant. Explicit
// per-field stores rather than a struct assignment: the struct embeds a
// mutex (vet copylocks), and the previous tenant is guaranteed to have
// unlocked it before the slot cleared its grace period.
func (fd *fastDentry) reset(self slab.Ref) {
	fd.self = self
	fd.seq.Store(0)
	fd.validGen.Store(0)
	fd.shootMark.Store(0)
	fd.touches.Store(0)
	fd.hasState = false
	fd.state = sig.State{}
	fd.idx = 0
	fd.sg = sig.Signature{}
	fd.inTable = nil
	fd.statePtr.Store(nil)
	fd.mntP.Store(nil)
	fd.target.Store(0)
	fd.targetSeq.Store(0)
	fd.pubSeq = 0
}

// Core implements vfs.Hooks.
type Core struct {
	cfg Config
	k   *vfs.Kernel
	key *sig.Key

	// fds and nodes are the core's slab arenas — per-dentry fastpath
	// state and DLHT chain nodes — driven by the kernel's epoch gate so
	// one grace period covers dentries and everything hanging off them.
	fds   *slab.Arena[fastDentry]
	nodes *slab.Arena[dnode]

	// epoch is the global invalidation counter (§3.2): every mutation
	// bumps it when it begins and again when it ends. mutating counts the
	// mutations in flight; it is needed because two overlapping mutations
	// leave the epoch even while both are running. Slowpath results are
	// only cached if no mutation is in flight and the epoch is unchanged
	// across the walk (tokenValid).
	epoch    atomic.Uint64
	mutating atomic.Int64

	// shootGen is the batch-shootdown generation counter: each range
	// shootdown bumps it once (instead of bumping every descendant's seq)
	// and stamps the subtree root's shootMark with the new value. Fastpath
	// probes compare a dentry's validGen against shootGen and, on
	// mismatch, climb its ancestors for a newer mark (Core.fresh).
	shootGen atomic.Uint64

	// admitAfter caches Config.AdmitAfter with the default applied.
	admitAfter int

	// regMu guards the registries below. pccs registers every live PCC
	// (with its owning credential) so that a per-dentry version counter
	// wrapping its truncated width can invalidate all of them — the
	// paper's §3.1 wraparound rule ("our design currently handles
	// wrap-around by invalidating all active PCCs") — and so the auditor
	// can re-verify memoized prefix checks per credential. dlhts registers
	// every per-namespace DLHT for introspection and auditing.
	regMu sync.Mutex
	pccs  []pccReg
	dlhts []*DLHT

	stats statsCell

	// testSkipShootdown, when set, makes invalidateSubtree bump version
	// counters WITHOUT removing DLHT entries — deliberately breaking the
	// pubSeq invariant. Test-only: it exists so the audit tests can prove
	// the auditor catches a real stale-DLHT bug.
	testSkipShootdown bool

	// testSkipBatchMark, when set, makes the batch-shootdown path bump the
	// generation WITHOUT stamping the subtree root's shootMark — a missed
	// range shootdown. Test-only: it exists so the audit tests can prove
	// the auditor catches a batch mark that never landed.
	testSkipBatchMark bool

	// testSkipShortcutPCC, when set, makes shortcut-resume authorization
	// skip the PCC-coverage check — seeded scans then skip the prefix's
	// search permissions for credentials that never passed them.
	// Test-only: it exists so the shortcut tests can prove the coverage
	// check is what stops an unauthorized resume.
	testSkipShortcutPCC bool
}

// pccReg pairs a registered PCC with the credential it caches for.
type pccReg struct {
	cr *cred.Cred
	p  *PCC
}

var seedCounter atomic.Uint64

// Install wires a Core into k and returns it. Call once, before tasks run.
func Install(k *vfs.Kernel, cfg Config) *Core {
	if cfg.Seed == 0 {
		cfg.Seed = 0x5ca1ab1e0ddba11 ^ (seedCounter.Add(1) * 0x9e3779b97f4a7c15)
	}
	c := &Core{cfg: cfg, k: k, key: sig.NewKey(cfg.Seed)}
	c.fds = slab.New[fastDentry](k.Gate(), k.SlabOptions())
	c.nodes = slab.New[dnode](k.Gate(), k.SlabOptions())
	c.admitAfter = cfg.AdmitAfter
	if c.admitAfter == 0 {
		c.admitAfter = 2
	}
	k.SetHooks(c)
	return c
}

// Stats snapshots the fastpath counters. Hit counts live in the kernel's
// counters (the hot path records them once there); TryFast approximates
// attempts as hits + recorded miss reasons.
func (c *Core) Stats() Stats {
	ks := c.k.Stats()
	return Stats{
		TryFast:        ks.FastHits + c.stats.dlhtMiss.Load() + c.stats.pccMiss.Load(),
		Hits:           ks.FastHits,
		NegHits:        ks.FastNegHits,
		DLHTMiss:       c.stats.dlhtMiss.Load(),
		PCCMiss:        c.stats.pccMiss.Load(),
		DotDotChecks:   c.stats.dotDotChecks.Load(),
		Populations:    c.stats.populations.Load(),
		Invalidation:   c.stats.invalidations.Load(),
		StaleTokens:    c.stats.staleTokens.Load(),
		AliasCreated:   c.stats.aliasCreated.Load(),
		DeepNegCreated: c.stats.deepNegCreated.Load(),
		SeqBumps:       c.stats.seqBumps.Load(),
		DLHTSweeps:     c.sumDLHTSweeps(),
		PCCFlushes:     c.sumPCC(func(p *PCC) int64 { return p.flushes.Load() }),
		PCCResizes:     c.sumPCC(func(p *PCC) int64 { return p.resizes.Load() }),

		Admitted:        c.stats.admitted.Load(),
		Deferred:        c.stats.deferred.Load(),
		Bypassed:        c.stats.bypassed.Load(),
		BatchShootdowns: c.stats.batchShootdowns.Load(),
		LazyShootdowns:  c.stats.lazyShootdowns.Load(),

		ShortcutResumes:    c.stats.shortcutResumes.Load(),
		ShortcutDepthSaved: c.stats.shortcutDepthSaved.Load(),
		HashedBytes:        c.stats.hashedBytes.Load(),
		ChildHops:          c.stats.childHops.Load(),
	}
}

// MemStats snapshots the core's slab arenas — fast-dentry side-table
// slots and DLHT chain nodes — for telemetry's "mem" gauges and the
// memscale experiment.
func (c *Core) MemStats() (fds, nodes slab.Stats) {
	return c.fds.Stats(), c.nodes.Stats()
}

func (c *Core) sumDLHTSweeps() int64 {
	c.regMu.Lock()
	dlhts := append([]*DLHT(nil), c.dlhts...)
	c.regMu.Unlock()
	var n int64
	for _, dl := range dlhts {
		n += dl.sweeps.Load()
	}
	return n
}

func (c *Core) sumPCC(f func(*PCC) int64) int64 {
	c.regMu.Lock()
	regs := append([]pccReg(nil), c.pccs...)
	c.regMu.Unlock()
	var n int64
	for _, r := range regs {
		n += f(r.p)
	}
	return n
}

// tele returns the kernel's telemetry sink iff it is enabled, nil
// otherwise — the usual one-load-one-branch detachment pattern.
func (c *Core) tele() *telemetry.Telemetry {
	tel := c.k.Telemetry()
	if !tel.On() {
		return nil
	}
	return tel
}

// fast extracts the fastDentry attached at allocation.
func fast(d *vfs.Dentry) *fastDentry {
	fd, _ := d.Fast().(*fastDentry)
	return fd
}

// NewDentry implements vfs.Hooks. The fastDentry comes from the core's
// slab arena (one slot per dentry, same lifecycle), not the GC heap. The
// fresh dentry's validGen starts at the current shootdown generation: it
// holds no state a past range shootdown could have staled, so there is
// nothing to climb for.
func (c *Core) NewDentry(d *vfs.Dentry) any {
	r, fd := c.fds.Alloc()
	fd.reset(r)
	fd.validGen.Store(c.shootGen.Load())
	return fd
}

// OnReclaim implements vfs.Hooks: the lazy-teardown sweeper is about to
// retire a dead dentry's slab slot. Finish the fastpath half of the
// teardown that kill time deferred — drop the residual DLHT entry and
// cached state, then retire the fast-dentry slot into the same
// grace-period limbo. In-section readers still holding the dentry can
// keep dereferencing fd until the grace period ends.
func (c *Core) OnReclaim(d *vfs.Dentry) {
	fd := fast(d)
	if fd == nil {
		return
	}
	unpublish(c.tele(), d, fd, "reclaim")
	c.fds.Retire(fd.self)
}

// OnReap implements vfs.Hooks: the kernel's reclamation cadence. Return
// grace-elapsed fast-dentry and DLHT-node slots to their free-lists so
// churn recycles slots instead of growing the arenas. Reclaim bounds
// match the kernel's own per-call batches; the DLHT-node budget is
// larger because insert-time sweeps retire nodes in bursts.
func (c *Core) OnReap() {
	c.fds.Reclaim(8192)
	c.nodes.Reclaim(16384)
}

// OnRecycle implements vfs.Hooks: the dentry changed identity (a positive
// dentry went negative on unlink, or a negative one was re-created).
// Admission touch counts from the previous identity must not carry over —
// a freshly re-created file is a first-touch dentry again.
func (c *Core) OnRecycle(d *vfs.Dentry) {
	if fd := fast(d); fd != nil {
		fd.touches.Store(0)
	}
}

// dlhtFor returns the namespace's private DLHT, creating it on first use
// (§4.3: per-namespace direct lookup hash tables).
func (c *Core) dlhtFor(ns *vfs.Namespace) *DLHT {
	if v := ns.FastLoad(); v != nil {
		return v.(*DLHT)
	}
	fresh := newDLHT(c.nodes, c.k)
	fresh.tel = c.k.Telemetry
	dl := ns.FastStoreIfAbsent(fresh).(*DLHT)
	c.regMu.Lock()
	registered := false
	for _, have := range c.dlhts {
		if have == dl {
			registered = true
			break
		}
	}
	if !registered {
		c.dlhts = append(c.dlhts, dl)
	}
	c.regMu.Unlock()
	return dl
}

// pccFor returns the credential's PCC, creating it on first use (§4.1:
// PCCs attach to immutable, shared cred structures).
func (c *Core) pccFor(cr *cred.Cred) *PCC {
	if v := cr.CacheLoad(); v != nil {
		return v.(*PCC)
	}
	np := newPCC(c.cfg.PCCBytes, c.cfg.PCCMaxBytes)
	np.tel = c.k.Telemetry
	np.credID = cr.ID()
	p := cr.CacheStoreIfAbsent(np).(*PCC)
	c.regMu.Lock()
	registered := false
	for _, have := range c.pccs {
		if have.p == p {
			registered = true
			break
		}
	}
	if !registered {
		c.pccs = append(c.pccs, pccReg{cr: cr, p: p})
	}
	c.regMu.Unlock()
	return p
}

// invalidateAllPCCs wipes every registered prefix check cache (version
// counter wraparound, §3.1).
func (c *Core) invalidateAllPCCs() {
	c.regMu.Lock()
	regs := append([]pccReg(nil), c.pccs...)
	c.regMu.Unlock()
	for _, r := range regs {
		r.p.Invalidate()
	}
}

// BeginSlow implements vfs.Hooks: capture the invalidation epoch.
func (c *Core) BeginSlow() uint64 { return c.epoch.Load() }

// tokenValid reports whether a slowpath result captured at token may be
// cached: no mutation may be in flight and the epoch must be unchanged.
func (c *Core) tokenValid(token uint64) bool {
	return c.epoch.Load() == token && c.mutating.Load() == 0
}

// BeginMutation implements vfs.Hooks (§3.2): bump the invalidation epoch,
// shoot down the subtree's fastpath state, and return the closure that
// re-bumps the epoch when the mutation completes. The shootdown is timed
// into the reason's mutation-side histogram and journaled: one epoch_bump
// per edge, one seq_bump at the root carrying the subtree size.
func (c *Core) BeginMutation(d *vfs.Dentry, why vfs.Invalidation) func() {
	tel := c.tele()
	c.mutating.Add(1)
	epoch := c.epoch.Add(1)
	c.stats.invalidations.Add(1)
	var start time.Time
	if tel != nil {
		tel.Emit(telemetry.JEpochBump, d.ID(), int64(epoch), why.String())
		start = time.Now()
	}
	if c.batchable(d, why) {
		c.batchShoot(d, why, tel)
	} else {
		n := c.invalidateSubtree(d, tel)
		c.stats.seqBumps.Add(int64(n))
		if tel != nil {
			tel.Emit(telemetry.JSeqBump, d.ID(), int64(n), why.String())
		}
	}
	if tel != nil {
		tel.Record(invalHist(why), time.Since(start))
	}
	return func() {
		end := c.epoch.Add(1)
		c.mutating.Add(-1)
		if tel != nil {
			tel.Emit(telemetry.JEpochBump, d.ID(), int64(end), why.String()+"-end")
		}
	}
}

// batchable reports whether this invalidation may take the O(1) range
// shootdown instead of the recursive per-descendant walk. Structural
// mutations over a populated subtree (rm -r teardown, rename, unmount)
// qualify; permission changes (InvalPerm) stay eager because PCC entries
// key on per-dentry seq values — a chmod must bump every descendant's seq
// or stale memoized prefix checks keep authorizing (§3.2).
func (c *Core) batchable(d *vfs.Dentry, why vfs.Invalidation) bool {
	switch why {
	case vfs.InvalRename, vfs.InvalUnlink, vfs.InvalMount, vfs.InvalRemote:
		return d.ChildCount() > 0
	}
	return false
}

// batchShoot is the epoch-tagged range shootdown: bump the generation
// counter once, eagerly invalidate only the subtree root (its seq bump
// stales PCC entries naming the root itself), and stamp the root's
// shootMark so fastpath probes and sweeps lazily discard every
// descendant's state on next encounter (Core.fresh). O(1) instead of
// O(subtree), which is what rm -r and rename teardown pay per call.
func (c *Core) batchShoot(d *vfs.Dentry, why vfs.Invalidation, tel *telemetry.Telemetry) {
	gen := c.shootGen.Add(1)
	c.stats.batchShootdowns.Add(1)
	c.stats.seqBumps.Add(1)
	fd := fast(d)
	if fd != nil {
		c.bumpSeq(fd)
		unpublish(tel, d, fd, "shootdown")
		if !c.testSkipBatchMark {
			fd.shootMark.Store(gen)
		}
	}
	if tel != nil {
		tel.Emit(telemetry.JBatchShoot, d.ID(), int64(gen), why.String())
	}
}

// fresh reports whether d's fastpath state postdates every batch
// shootdown covering it. The hot path is one load-and-compare; only a
// generation mismatch climbs the ancestor chain looking for a shootMark
// newer than d's validGen. A stale dentry is lazily invalidated here
// (seq bump + DLHT removal + state drop) and fresh returns false so the
// caller falls back to the slow walk.
//
// On a clean climb the result is memoized (validGen advanced to the
// generation read before the climb) — but only if no mutation was in
// flight and the invalidation epoch was unchanged across the climb
// (tokenValid). Without that gate, a racing
// mutation could stamp an ancestor's shootMark after our climb had
// already passed it, and the memoized validGen would mask that mark
// forever. With the gate, either we see the mark (epoch already bumped
// before the generation, seq-cst), or the epoch check fails and we skip
// memoization; the next probe re-climbs.
func (c *Core) fresh(d *vfs.Dentry) bool {
	fd := fast(d)
	if fd == nil {
		return true
	}
	gen := c.shootGen.Load()
	vg := fd.validGen.Load()
	if vg == gen {
		return true
	}
	e1 := c.epoch.Load()
	stale := false
	for cur := d; cur != nil; cur = cur.Parent() {
		cfd := fast(cur)
		if cfd == nil {
			break
		}
		if cfd.shootMark.Load() > vg {
			stale = true
			break
		}
	}
	if stale {
		c.lazyInvalidate(d, fd)
		return false
	}
	if c.tokenValid(e1) {
		fd.validGen.Store(gen)
	}
	return true
}

// lazyInvalidate performs the per-dentry work a batch shootdown deferred:
// bump seq (staling PCC entries), drop the DLHT entry and cached state.
// validGen advances only when no mutation is in flight, so a dentry under
// an active mutation keeps re-invalidating (harmlessly) until it ends.
func (c *Core) lazyInvalidate(d *vfs.Dentry, fd *fastDentry) {
	c.stats.lazyShootdowns.Add(1)
	c.stats.seqBumps.Add(1)
	c.bumpSeq(fd)
	unpublish(c.tele(), d, fd, "lazy-shootdown")
	if c.mutating.Load() == 0 {
		fd.validGen.Store(c.shootGen.Load())
	}
}

// SweepStale walks every registered DLHT and lazily discards entries
// staled by batch shootdowns — the "one sweep" after which a batch-shot
// subtree must hold no live entries (the auditor runs this before its
// scans). Returns the number of entries discarded.
func (c *Core) SweepStale() int {
	c.regMu.Lock()
	dlhts := append([]*DLHT(nil), c.dlhts...)
	c.regMu.Unlock()
	n := 0
	for _, dl := range dlhts {
		dl.forEachEntry(func(_ uint16, _ sig.Signature, d *vfs.Dentry) {
			if !c.fresh(d) {
				n++
			}
		})
	}
	return n
}

// ShootGen returns the current batch-shootdown generation (introspection).
func (c *Core) ShootGen() uint64 { return c.shootGen.Load() }

// invalHist maps an invalidation reason to its latency histogram.
func invalHist(why vfs.Invalidation) telemetry.HistID {
	switch why {
	case vfs.InvalPerm:
		return telemetry.HistChmodBump
	case vfs.InvalUnlink:
		return telemetry.HistUnlinkInval
	default: // rename and mount-topology changes share an envelope
		return telemetry.HistRenameInval
	}
}

// invalidateSubtree recursively bumps every cached descendant's version
// counter (killing its PCC entries without touching any PCC) and evicts it
// from whatever DLHT currently holds it — the paper's pre-mutation
// shootdown. Returns the number of dentries visited (the subtree size the
// root's seq_bump event reports).
func (c *Core) invalidateSubtree(d *vfs.Dentry, tel *telemetry.Telemetry) int {
	n := 1
	fd := fast(d)
	if fd != nil {
		c.bumpSeq(fd)
		if !c.testSkipShootdown {
			// The path (or its permission context) is changing: recompute
			// signature state lazily on next population.
			unpublish(tel, d, fd, "shootdown")
		}
	}
	d.EachChild(func(ch *vfs.Dentry) { n += c.invalidateSubtree(ch, tel) })
	return n
}

// bumpSeq advances fd's version counter, staling every PCC entry that
// memoized it. When the truncated seq stored in PCC entries wraps, stale
// entries from 2^31 bumps ago would match again, so every PCC is wiped,
// as the paper does for its 32-bit counters.
func (c *Core) bumpSeq(fd *fastDentry) {
	if fd.seq.Add(1)&pccSeqMask == 0 {
		c.invalidateAllPCCs()
	}
}

// unpublish drops d from whatever DLHT holds it, journaling the removal
// under note, and clears its memoized signature state and target so the
// next population recomputes them.
func unpublish(tel *telemetry.Telemetry, d *vfs.Dentry, fd *fastDentry, note string) {
	fd.mu.Lock()
	if fd.inTable != nil {
		removeTimed(tel, fd.inTable, fd.idx, fd.sg, d)
		fd.inTable = nil
		if tel != nil {
			tel.Emit(telemetry.JDLHTRemove, d.ID(), int64(fd.idx), note)
		}
	}
	fd.hasState = false
	fd.statePtr.Store(nil)
	fd.target.Store(0)
	fd.mu.Unlock()
}

// removeTimed is DLHT.Remove timed into HistDLHTRemove when telemetry is
// enabled (tel non-nil).
func removeTimed(tel *telemetry.Telemetry, dl *DLHT, idx uint16, sg sig.Signature, d *vfs.Dentry) {
	if tel == nil {
		dl.Remove(idx, sg, d)
		return
	}
	start := time.Now()
	dl.Remove(idx, sg, d)
	tel.Record(telemetry.HistDLHTRemove, time.Since(start))
}

// OnEvict implements vfs.Hooks. The dentry is dead, and DLHT lookups skip
// dead dentries, so its table node is reclaimed lazily by the next insert
// into the bucket — eviction itself stays O(1).
func (c *Core) OnEvict(d *vfs.Dentry) {
	fd := fast(d)
	if fd == nil {
		return
	}
	fd.seq.Add(1)
}

// ensureState returns ref.D's canonical-path signature state, computing it
// bottom-up (and caching it in each ancestor's fastDentry) if needed. The
// mount chain supplies the namespace-level canonical path: a mount root's
// path is its mountpoint's path (§4.3).
func (c *Core) ensureState(ref vfs.PathRef) (sig.State, bool) {
	fd := fast(ref.D)
	if fd == nil || ref.Mnt == nil || ref.D.IsDead() {
		return sig.State{}, false
	}
	// A batch shootdown leaves descendants' cached states in place; drop
	// a stale one here (fresh lazily invalidates) rather than serve a
	// pre-mutation signature, then fall through and recompute.
	_ = c.fresh(ref.D)
	if sp := fd.statePtr.Load(); sp != nil {
		return *sp, true
	}
	fd.mu.Lock()
	if fd.hasState {
		st := fd.state
		fd.mu.Unlock()
		return st, true
	}
	fd.mu.Unlock()

	var st sig.State
	if ref.D == ref.Mnt.Root() {
		if ref.Mnt.ParentMount() == nil {
			st = c.key.NewState() // namespace root: empty path prefix
		} else {
			parent := vfs.PathRef{Mnt: ref.Mnt.ParentMount(), D: ref.Mnt.Mountpoint()}
			pst, ok := c.ensureState(parent)
			if !ok {
				return sig.State{}, false
			}
			st = pst
		}
	} else {
		p := ref.D.Parent()
		if p == nil {
			// Detached from the tree (racing eviction).
			return sig.State{}, false
		}
		pst, ok := c.ensureState(vfs.PathRef{Mnt: ref.Mnt, D: p})
		if !ok {
			return sig.State{}, false
		}
		name := ref.D.Name()
		if !pst.Fits(len(name) + 1) {
			return sig.State{}, false
		}
		st = pst.AppendString("/").AppendString(name)
		c.stats.hashedBytes.Add(int64(len(name) + 1))
	}

	fd.mu.Lock()
	if !fd.hasState {
		fd.state = st
		fd.hasState = true
		fd.idx, fd.sg = st.Sum()
		fd.mntP.Store(ref.Mnt)
		snap := st
		fd.statePtr.Store(&snap)
	}
	st = fd.state
	fd.mu.Unlock()
	return st, true
}

// publish installs d in the namespace's DLHT under state st, handling the
// mount-alias re-signing rule of §4.3: if the dentry is already in a DLHT
// under a different signature, the old entry is removed, the version
// counter bumped (aliased paths may have different prefix check results),
// and the new signature takes over.
//
// token is the walk's invalidation-epoch token: it is re-validated under
// fd.mu, closing the window between a caller's tokenValid check and the
// insert. Without it, a mutation landing in that window could shoot down
// the (not yet present) entry and then have publish install a signature
// computed from the pre-mutation path — a stale DLHT entry. The shootdown
// bumps the epoch before taking fd.mu, so whichever critical section runs
// second sees the other's work: either the shootdown removes our entry, or
// we observe the odd/advanced epoch and decline to insert.
func (c *Core) publish(dl *DLHT, ref vfs.PathRef, st sig.State, token uint64) {
	fd := fast(ref.D)
	if fd == nil || ref.D.IsDead() {
		return
	}
	if ref.D.Super().Caps().Revalidate {
		// §4.3: stateless network file systems must revalidate every
		// component at the server; a whole-path hit would skip that.
		return
	}
	tel := c.tele()
	idx, sg := st.Sum()
	fd.mu.Lock()
	defer fd.mu.Unlock()
	// Load the shootdown generation BEFORE validating the token: a batch
	// shootdown bumps the epoch before the generation, so if tokenValid
	// passes, gen is at least as new as any shootdown that could have
	// covered the state we are publishing — stamping validGen = gen below
	// can never mask a mark this entry should honour.
	gen := c.shootGen.Load()
	if !c.tokenValid(token) {
		c.stats.staleTokens.Add(1)
		return
	}
	if fd.inTable != nil {
		if fd.inTable == dl && fd.sg == sg {
			fd.mntP.Store(ref.Mnt)
			fd.state = st
			fd.hasState = true
			snap := st
			fd.statePtr.Store(&snap)
			fd.validGen.Store(gen)
			return // already published under this signature
		}
		// Aliased path or namespace switch: most recent wins.
		removeTimed(tel, fd.inTable, fd.idx, fd.sg, ref.D)
		if tel != nil {
			tel.Emit(telemetry.JDLHTRemove, ref.D.ID(), int64(fd.idx), "resign")
		}
		fd.inTable = nil
		fd.seq.Add(1)
	}
	fd.state = st
	fd.hasState = true
	fd.idx, fd.sg = idx, sg
	fd.mntP.Store(ref.Mnt)
	snap := st
	fd.statePtr.Store(&snap)
	fd.pubSeq = fd.seq.Load()
	fd.validGen.Store(gen)
	dl.Insert(idx, sg, ref.D)
	fd.inTable = dl
	c.stats.populations.Add(1)
	if tel != nil {
		tel.Emit(telemetry.JDLHTInsert, ref.D.ID(), int64(idx), "")
	}
}

// Seq returns d's current fastpath version (for PCC entries).
func dentrySeq(d *vfs.Dentry) uint64 {
	if fd := fast(d); fd != nil {
		return fd.seq.Load()
	}
	return 0
}
