package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dircache"
	"dircache/internal/audit"
)

// Router fronts a set of shards as one namespace and is the tier's only
// writer: every operation routes to the owning shard of its path (Ring),
// and a mutation returns only after every peer shard has invalidated the
// paths it touched. The Router serializes its own bookkeeping; the shards
// themselves are concurrent.
type Router struct {
	ring   *Ring
	shards []Shard

	// inflight counts, per owning shard, the routed mutations that have
	// not yet finished invalidating their peers (Lag).
	inflight []atomic.Int64

	// mu guards the recent-mutation ring the auditor probes.
	mu      sync.Mutex
	recent  []string
	recentW int

	// Coherence counters (introspection + bench determinism gates).
	published atomic.Uint64 // mutated paths fanned out to peers
	applied   atomic.Uint64 // per-peer invalidation applications

	// dropInvalidations is the injected-bug switch: the fan-out counts
	// each path but applies nothing, so stale reads survive for the
	// cross-shard audit to catch. Tests only.
	dropInvalidations atomic.Bool
}

// recentCap bounds the recent-mutation ring the cross-shard audit probes.
const recentCap = 512

// Options configures a Router.
type Options struct {
	// Vnodes per shard on the ring (0 = DefaultVnodes).
	Vnodes int
	// Pins routes whole subtrees to fixed shards (root path → shard id);
	// see Ring.Pin.
	Pins map[string]int
}

// NewRouter assembles a router over shards with consistent-hash routing.
func NewRouter(shards []Shard, opt Options) *Router {
	r := &Router{
		ring:     NewRing(len(shards), opt.Vnodes),
		shards:   shards,
		inflight: make([]atomic.Int64, len(shards)),
		recent:   make([]string, 0, recentCap),
	}
	for root, id := range opt.Pins {
		r.ring.Pin(root, id)
	}
	return r
}

// Ring exposes the routing table (read-only use).
func (r *Router) Ring() *Ring { return r.ring }

// Shards returns the routed shard set.
func (r *Router) Shards() []Shard { return r.shards }

// Owner returns the shard id owning path.
func (r *Router) Owner(path string) int { return r.ring.Owner(path) }

func (r *Router) owner(path string) Shard { return r.shards[r.ring.Owner(path)] }

// Stat routes to the owner of path's binding.
func (r *Router) Stat(path string) (dircache.FileInfo, error) { return r.owner(path).Stat(path) }

// Lstat routes to the owner of path's binding.
func (r *Router) Lstat(path string) (dircache.FileInfo, error) { return r.owner(path).Lstat(path) }

// ReadDir routes to the shard owning path's own bindings (OwnerDir), the
// same shard that answers stats for path's children.
func (r *Router) ReadDir(path string) ([]dircache.DirEntry, error) {
	return r.shards[r.ring.OwnerDir(path)].ReadDir(path)
}

// ReadFile routes like Stat.
func (r *Router) ReadFile(path string) ([]byte, error) { return r.owner(path).ReadFile(path) }

// WriteFile executes on the owner and invalidates path on every peer.
func (r *Router) WriteFile(path string, data []byte, perm uint32) error {
	return r.mutate(path, func(s Shard) error { return s.WriteFile(path, data, perm) }, path)
}

// Mkdir executes on the owner and invalidates path on every peer.
func (r *Router) Mkdir(path string, perm uint32) error {
	return r.mutate(path, func(s Shard) error { return s.Mkdir(path, perm) }, path)
}

// Rename executes on the shard owning the source binding and invalidates
// both the source and the destination on every other shard, including
// the destination's owner.
func (r *Router) Rename(oldPath, newPath string) error {
	return r.mutate(oldPath, func(s Shard) error { return s.Rename(oldPath, newPath) }, oldPath, newPath)
}

// Unlink executes on the owner and invalidates path on every peer.
func (r *Router) Unlink(path string) error {
	return r.mutate(path, func(s Shard) error { return s.Unlink(path) }, path)
}

// Rmdir executes on the owner and invalidates path on every peer.
func (r *Router) Rmdir(path string) error {
	return r.mutate(path, func(s Shard) error { return s.Rmdir(path) }, path)
}

// Chmod executes on the owner and invalidates path on every peer.
func (r *Router) Chmod(path string, perm uint32) error {
	return r.mutate(path, func(s Shard) error { return s.Chmod(path, perm) }, path)
}

// mutate runs op on the shard owning key and, once it has committed,
// invalidates each of paths on every other shard before returning. A
// walk on a peer that read the backend before the commit left an
// in-lookup placeholder the invalidation kills, so no lookup that starts
// after mutate returns can be answered from pre-mutation state.
func (r *Router) mutate(key string, op func(Shard) error, paths ...string) error {
	id := r.ring.Owner(key)
	r.inflight[id].Add(1)
	defer r.inflight[id].Add(-1)
	if err := op(r.shards[id]); err != nil {
		return err
	}
	drop := r.dropInvalidations.Load()
	for _, p := range paths {
		r.noteMutation(p)
		r.published.Add(1)
		if drop {
			continue
		}
		for j, peer := range r.shards {
			if j != id {
				peer.Invalidate(p)
				r.applied.Add(1)
			}
		}
	}
	return nil
}

func (r *Router) noteMutation(path string) {
	r.mu.Lock()
	if len(r.recent) < recentCap {
		r.recent = append(r.recent, path)
	} else {
		r.recent[r.recentW%recentCap] = path
	}
	r.recentW++
	r.mu.Unlock()
}

// Pump is a no-op: mutations invalidate their peers before returning, so
// there is nothing left to deliver. Kept for callers that pump on a
// schedule; always returns 0.
func (r *Router) Pump() int { return 0 }

// Converge reports whether every shard's Lag is 0, yielding up to
// maxRounds times (0 = 8) for fan-outs in flight on other goroutines to
// finish.
func (r *Router) Converge(maxRounds int) bool {
	if maxRounds <= 0 {
		maxRounds = 8
	}
	for n := 0; ; n++ {
		quiet := true
		for i := range r.inflight {
			if r.inflight[i].Load() != 0 {
				quiet = false
				break
			}
		}
		if quiet {
			return true
		}
		if n == maxRounds {
			return false
		}
		runtime.Gosched()
	}
}

// TestDropInvalidations toggles the injected coherence bug (see
// dropInvalidations). Tests only.
func (r *Router) TestDropInvalidations(on bool) { r.dropInvalidations.Store(on) }

// Stats reports the coherence counters: paths fanned out, per-peer
// invalidations applied, and fallbacks (always 0; no mutation is ever
// lost, so no shard needs a full resync).
func (r *Router) Stats() (published, applied, fallbacks uint64) {
	return r.published.Load(), r.applied.Load(), 0
}

// Lag returns, per shard, how many mutations it owns are still executing
// or invalidating their peers (0 across the board when no routed
// mutation is in flight).
func (r *Router) Lag() []int {
	out := make([]int, len(r.shards))
	for i := range r.inflight {
		out[i] = int(r.inflight[i].Load())
	}
	return out
}

// Close closes every shard.
func (r *Router) Close() error {
	var first error
	for _, s := range r.shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Audit runs the tier's cross-shard agreement check plus each shard's own
// invariant audit. cross_shard_stale: for recently mutated paths, no
// shard's cache may hold a claim (positive or negative) that contradicts
// ground truth. A miss is never stale — the next walk consults the
// backend. Run it while no routed mutation is in flight.
//
// truth reports ground truth for a path (exists or not); pass nil to skip
// the stale probe (e.g. over the wire, where no oracle exists).
func (r *Router) Audit(truth func(path string) (bool, error)) []audit.Finding {
	var findings []audit.Finding
	for i, s := range r.shards {
		if d, ok := s.(Doctorable); ok {
			rep := d.Doctor()
			for _, f := range rep.Findings {
				f.Detail = fmt.Sprintf("shard %d: %s", i, f.Detail)
				findings = append(findings, f)
			}
		}
	}
	if truth != nil {
		r.mu.Lock()
		paths := append([]string(nil), r.recent...)
		r.mu.Unlock()
		seen := make(map[string]bool, len(paths))
		for _, p := range paths {
			if seen[p] {
				continue
			}
			seen[p] = true
			exists, err := truth(p)
			if err != nil {
				continue
			}
			for j, s := range r.shards {
				pr, ok := s.(Prober)
				if !ok {
					continue
				}
				claim := pr.Claim(p)
				if (claim == dircache.ClaimPositive && !exists) ||
					(claim == dircache.ClaimNegative && exists) {
					findings = append(findings, audit.Finding{
						Check: "cross_shard_stale",
						Path:  p,
						Detail: fmt.Sprintf("shard %d claims %s but backend says exists=%v",
							j, claim, exists),
					})
				}
			}
		}
	}
	return findings
}
