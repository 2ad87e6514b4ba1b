package shard

import (
	"sync"

	"dircache"
	"dircache/internal/audit"
)

// Shard is one member of the metadata tier: a directory cache that owns a
// slice of the namespace, executes the mutations routed to it, and applies
// peer invalidations by discarding its cached view of the affected paths.
// Implemented by Local (an in-process System) and Remote (a dcserve
// endpoint over 9P).
type Shard interface {
	// Metadata operations, absolute canonical paths.
	Stat(path string) (dircache.FileInfo, error)
	Lstat(path string) (dircache.FileInfo, error)
	ReadDir(path string) ([]dircache.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte, perm uint32) error
	Mkdir(path string, perm uint32) error
	Rename(oldPath, newPath string) error
	Unlink(path string) error
	Rmdir(path string) error
	Chmod(path string, perm uint32) error

	// Invalidate applies a peer's mutation under path to this shard's
	// cache (cached-only teardown); returns dentries discarded.
	Invalidate(path string) int
	// InvalidateAll is the fail-closed resync for a shard whose cache may
	// have missed mutations of unknown paths (a write that bypassed the
	// router).
	InvalidateAll() int

	Close() error
}

// Prober is implemented by shards that can report their cache's current
// claim about a path without consulting the backend — the cross-shard
// auditor's stale-read probe. Remote shards do not implement it (a wire
// stat would populate the server cache and mask staleness).
type Prober interface {
	Claim(path string) dircache.CachedClaim
}

// Doctorable is implemented by shards that can run their own invariant
// audit.
type Doctorable interface {
	Doctor() audit.Report
}

// Local is a Shard over an in-process System. Every call runs as root
// through a Process of its own for as long as it runs: a Process carries
// per-walk state (the resume point of a directory shortcut), so
// concurrent router clients must not share one. Idle processes are kept
// for reuse and share one identity, and so one prefix check cache.
type Local struct {
	Sys *dircache.System
	id  *dircache.Identity

	mu   sync.Mutex
	idle []*dircache.Process
}

// NewLocal wraps sys as a shard.
func NewLocal(sys *dircache.System) *Local {
	return &Local{Sys: sys, id: dircache.NewIdentity(dircache.RootCreds())}
}

// proc takes an idle process, or starts one; put returns it.
func (l *Local) proc() *dircache.Process {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.idle); n > 0 {
		p := l.idle[n-1]
		l.idle = l.idle[:n-1]
		return p
	}
	return l.Sys.StartAs(l.id)
}

func (l *Local) put(p *dircache.Process) {
	l.mu.Lock()
	l.idle = append(l.idle, p)
	l.mu.Unlock()
}

func (l *Local) Stat(path string) (dircache.FileInfo, error) {
	p := l.proc()
	defer l.put(p)
	return p.Stat(path)
}

func (l *Local) Lstat(path string) (dircache.FileInfo, error) {
	p := l.proc()
	defer l.put(p)
	return p.Lstat(path)
}

func (l *Local) ReadDir(path string) ([]dircache.DirEntry, error) {
	p := l.proc()
	defer l.put(p)
	return p.ReadDir(path)
}

func (l *Local) ReadFile(path string) ([]byte, error) {
	p := l.proc()
	defer l.put(p)
	return p.ReadFile(path)
}

func (l *Local) WriteFile(path string, data []byte, perm uint32) error {
	p := l.proc()
	defer l.put(p)
	return p.WriteFile(path, data, perm)
}

func (l *Local) Mkdir(path string, perm uint32) error {
	p := l.proc()
	defer l.put(p)
	return p.Mkdir(path, perm)
}

func (l *Local) Rename(oldPath, newPath string) error {
	p := l.proc()
	defer l.put(p)
	return p.Rename(oldPath, newPath)
}

func (l *Local) Unlink(path string) error {
	p := l.proc()
	defer l.put(p)
	return p.Unlink(path)
}

func (l *Local) Rmdir(path string) error {
	p := l.proc()
	defer l.put(p)
	return p.Rmdir(path)
}

func (l *Local) Chmod(path string, perm uint32) error {
	p := l.proc()
	defer l.put(p)
	return p.Chmod(path, perm)
}

func (l *Local) Invalidate(path string) int             { return l.Sys.RemoteInvalidate(path) }
func (l *Local) InvalidateAll() int                     { return l.Sys.RemoteInvalidateAll() }
func (l *Local) Claim(path string) dircache.CachedClaim { return l.Sys.CachedClaim(path) }
func (l *Local) Doctor() audit.Report                   { return l.Sys.Doctor() }

// Close exits the idle processes.
func (l *Local) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.idle {
		p.Exit()
	}
	l.idle = nil
	return nil
}
