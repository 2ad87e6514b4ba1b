package dircache

import "fmt"

// Shard support: the hooks internal/shard uses to run N System instances
// as one sharded namespace. The shard router executes each mutation on
// the owning System and then applies it to every peer by discarding the
// peer's cached view of the affected path — fail-closed, never replayed.

// RemoteInvalidate applies a peer shard's mutation under path to this
// System's cache: the cached view of the path (if any) is torn down and
// its parent's listing authority dropped. Cached-only — no backend I/O.
// Returns the number of dentries discarded.
func (s *System) RemoteInvalidate(path string) int {
	return s.k.InvalidateCachedPath(path)
}

// RemoteInvalidateAll is the fail-closed resync for a System whose cache
// may have missed peer mutations of unknown paths: every cached dentry is
// dropped (evictions clear each parent's DIR_COMPLETE on the way out) and
// the root takes an InvalRemote epoch bump, so nothing cached before the
// gap can answer a walk. Returns the number of dentries discarded.
func (s *System) RemoteInvalidateAll() int {
	n := s.k.DropCaches()
	s.k.InvalidateCachedPath("/")
	return n
}

// CachedClaim classifies what the System's cache currently claims about a
// path without consulting the backend; see the constants. The cross-shard
// auditor compares claims against ground truth.
type CachedClaim int

const (
	// ClaimMiss: the cache holds no claim; the next walk asks the backend.
	ClaimMiss CachedClaim = iota
	// ClaimPositive: the full path is cached with a live inode.
	ClaimPositive
	// ClaimNegative: the cache would answer ENOENT authoritatively (a
	// negative dentry, or a DIR_COMPLETE parent without the binding).
	ClaimNegative
)

// String names the claim for audit findings.
func (c CachedClaim) String() string {
	switch c {
	case ClaimPositive:
		return "positive"
	case ClaimNegative:
		return "negative"
	case ClaimMiss:
		return "miss"
	}
	return fmt.Sprintf("claim(%d)", int(c))
}

// CachedClaim reports the cache's current claim about path.
func (s *System) CachedClaim(path string) CachedClaim {
	return CachedClaim(s.k.CachedPathClaim(path))
}

// RegisterSystems registers each system's cache counters with tl under
// per-shard source names ("<prefix>0", "<prefix>1", ...), so the metrics
// exporter and dcsh top render one row per shard instead of silently
// showing only shard 0.
func (tl *Telemetry) RegisterSystems(prefix string, systems ...*System) {
	for i, sys := range systems {
		sys := sys
		tl.t.RegisterStats(fmt.Sprintf("%s%d", prefix, i), func() map[string]int64 {
			out := sys.Stats().counters()
			out["dentries"] = int64(sys.DentryCount())
			return out
		})
	}
}
