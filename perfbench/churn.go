package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dircache"
	"dircache/internal/shard"
)

// churnFS is what the write-beside-read mix of local-churn and tier-rw
// goes through: a Process in local-churn, the Router in tier-rw.
type churnFS interface {
	Stat(path string) (dircache.FileInfo, error)
	ReadDir(path string) ([]dircache.DirEntry, error)
	Create(path string) error
	Unlink(path string) error
	Rename(oldPath, newPath string) error
}

type processFS struct{ *dircache.Process }

func (p processFS) Create(path string) error { return p.Process.Create(path, 0o644) }

type routerFS struct{ *shard.Router }

func (r routerFS) Create(path string) error { return r.WriteFile(path, nil, 0o644) }

// churnMix is an op mix in cumulative percentages: a draw below stat
// stats, below write creates or unlinks, below rename renames a directory,
// and any other scans.
type churnMix struct{ stat, write, rename int }

// churnSpans are the span kinds a traced churner records its calls as.
type churnSpans struct{ stat, readDir, write spanKind }

// churner drives the write-beside-read mix over a model of the tree, one
// operation at a time, and checks every answer against the model.
type churner struct {
	fs    churnFS
	m     *model
	rng   *rand.Rand
	dirs  []*node // the directories ops pick from, by Zipf rank
	zipf  *rand.Zipf
	files int // the size writes keep each directory at
	mix   churnMix
	spans churnSpans
	// admitLag counts a lagged answer (see lagged) as stale rather than
	// failed. Only tier-rw sets it: its shards catch up on each other's
	// writes at the next pump.
	admitLag bool
	fresh    int      // counter behind every new name
	gone     pathRing // recently removed paths
}

// pathRing keeps the last cap(paths) paths added.
type pathRing struct {
	paths []string
	next  int
}

func newPathRing(n int) pathRing { return pathRing{paths: make([]string, 0, n)} }

func (r *pathRing) add(path string) {
	if len(r.paths) < cap(r.paths) {
		r.paths = append(r.paths, path)
	} else {
		r.paths[r.next] = path
		r.next = (r.next + 1) % cap(r.paths)
	}
}

func (r *pathRing) pick(rng *rand.Rand) string { return r.paths[rng.Intn(len(r.paths))] }

// goneRing is how many recently removed paths stats pick from as absent
// names.
const goneRing = 256

// newChurner shuffles dirs into a seed-drawn Zipf rank order. The caller
// sets fs, files, mix, spans and admitLag.
func newChurner(m *model, dirs []*node, seed int64) *churner {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(dirs), func(i, j int) { dirs[i], dirs[j] = dirs[j], dirs[i] })
	return &churner{
		m: m, rng: rng, dirs: dirs,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(dirs)-1)),
		gone: newPathRing(goneRing),
	}
}

func (c *churner) pickDir() *node { return c.dirs[c.zipf.Uint64()] }

func (c *churner) freshName(prefix string) string {
	c.fresh++
	return fmt.Sprintf("%s%d", prefix, c.fresh)
}

// grow reports whether a write to directory d creates a file rather than
// unlinking one: whichever moves d back toward c.files files, a coin flip
// at that size. Directories then keep their size however long the run,
// and so does the cost of scanning them.
func (c *churner) grow(d *node) bool {
	switch n := len(d.list); {
	case n < c.files:
		return true
	case n > c.files:
		return false
	}
	return c.rng.Intn(2) == 0
}

// absentNames is how many names each directory has that stats may ask for
// but no write ever creates, so negative entries stop growing in number.
const absentNames = 64

// statTarget picks a stat: 90% a file of a Zipf-picked directory, 5% a
// recently removed path and 5% a name never created.
func (c *churner) statTarget() string {
	r := c.rng.Intn(100)
	d := c.pickDir()
	switch {
	case r < 90 && len(d.list) > 0:
		return d.list[c.rng.Intn(len(d.list))].path()
	case r < 95 && len(c.gone.paths) > 0:
		return c.gone.pick(c.rng)
	}
	return d.child(fmt.Sprintf("x%d", c.rng.Intn(absentNames)))
}

// samplePaths returns stat targets drawn like the mix's.
func (c *churner) samplePaths() []string {
	out := make([]string, 4096)
	for i := range out {
		out[i] = c.statTarget()
	}
	return out
}

// step runs one operation of the mix. It returns false once an answer is
// wrong in a way admitLag does not excuse.
func (c *churner) step(t *tally, rec *recorder) bool {
	failures, wrong := t.failures, t.wrong()
	op := rec.begin(spOp)
	switch r := c.rng.Intn(100); {
	case r < c.mix.stat:
		c.stat(t, rec, c.statTarget())
	case r < c.mix.write:
		if d := c.pickDir(); c.grow(d) {
			c.create(t, rec, d)
		} else {
			c.unlink(t, rec, d.list[c.rng.Intn(len(d.list))])
		}
	case r < c.mix.rename:
		c.rename(t, rec, c.pickDir())
	default:
		c.scan(t, rec)
	}
	rec.end(op)
	t.done(time.Now(), t.wrong() == wrong)
	return t.failures == failures
}

func notFound(err error) bool {
	return errors.Is(err, dircache.ErrNotExist) || errors.Is(err, dircache.ErrNotDir)
}

// lagged reports whether a wrong answer is one a shard gives from a view
// older than the session's acknowledged writes: the wrong existence, or
// ESTALE from a cached entry whose file another shard has removed. werr is
// what the model expects; nil means the path exists.
func lagged(werr, err error) bool {
	if errors.Is(err, dircache.ErrStale) {
		return true
	}
	return (werr == nil && notFound(err)) || (werr != nil && err == nil)
}

// judge counts a wrong answer, described by msg: into stale when admitLag
// excuses it, else as a failure.
func (c *churner) judge(t *tally, stale *int64, msg string, werr, err error) {
	if c.admitLag && lagged(werr, err) {
		*stale++
		return
	}
	t.fail(msg)
}

func (c *churner) stat(t *tally, rec *recorder, path string) {
	t0 := time.Now()
	s := rec.begin(c.spans.stat)
	fi, err := c.fs.Stat(path)
	rec.end(s)
	t.read(t0)
	want, werr := c.m.lookup(path)
	if msg := compareStat(path, want, werr, fi.IsDir(), err); msg != "" {
		c.judge(t, &t.staleReads, msg, werr, err)
	}
}

// write times one write of a target the model holds and reports whether
// the program acknowledged it.
func (c *churner) write(t *tally, rec *recorder, what string, call func() error) bool {
	t0 := time.Now()
	s := rec.begin(c.spans.write)
	err := call()
	rec.end(s)
	t.write(t0)
	if err != nil {
		c.judge(t, &t.staleWrites, fmt.Sprintf("%s: %v", what, err), nil, err)
		return false
	}
	return true
}

func (c *churner) create(t *tally, rec *recorder, d *node) {
	name := c.freshName("n")
	path := d.child(name)
	if c.write(t, rec, "create "+path, func() error { return c.fs.Create(path) }) {
		c.m.add(d, name, false)
	}
}

func (c *churner) unlink(t *tally, rec *recorder, f *node) {
	path := f.path()
	if c.write(t, rec, "unlink "+path, func() error { return c.fs.Unlink(path) }) {
		c.m.unlinkNode(f)
		c.gone.add(path)
	}
}

func (c *churner) rename(t *tally, rec *recorder, d *node) {
	oldPath, name := d.path(), c.freshName("r")
	newPath := d.parent.child(name)
	if c.write(t, rec, "rename "+oldPath, func() error { return c.fs.Rename(oldPath, newPath) }) {
		c.m.rename(d, name)
		c.gone.add(oldPath)
	}
}

// scan lists a directory and stats every child, the shape of ls -l.
func (c *churner) scan(t *tally, rec *recorder) {
	d := c.pickDir()
	dir := d.path()
	t.scans++
	t0 := time.Now()
	defer t.read(t0)
	s := rec.begin(c.spans.readDir)
	ents, err := c.fs.ReadDir(dir)
	rec.end(s)
	if err != nil {
		t.fail(fmt.Sprintf("readdir %s: %v", dir, err))
		return
	}
	names := entryNames(ents)
	if msg := checkNames(dir, d.sortedNames(), names); msg != "" {
		t.fail(msg)
		return
	}
	for _, name := range names {
		if name == "." || name == ".." {
			continue
		}
		path := dir + "/" + name
		s := rec.begin(c.spans.stat)
		fi, err := c.fs.Stat(path)
		rec.end(s)
		if msg := compareStat(path, d.kids[name], nil, fi.IsDir(), err); msg != "" {
			c.judge(t, &t.staleReads, msg, nil, err)
			return
		}
	}
}

// verify stats every path of the model and every recently removed one
// once the run is over. A lagged answer admitLag excuses counts as stale
// after the run.
func (c *churner) verify(t *tally) {
	check := func(path string) {
		want, werr := c.m.lookup(path)
		fi, err := c.fs.Stat(path)
		if msg := compareStat(path, want, werr, fi.IsDir(), err); msg != "" {
			c.judge(t, &t.staleConverged, "after the run: "+msg, werr, err)
		}
	}
	for _, n := range c.m.entries() {
		check(n.path())
	}
	for _, path := range c.gone.paths {
		check(path)
	}
}
