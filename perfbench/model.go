package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dircache"
)

// The model is the benchmark's own sequential copy of the namespace. Every
// answer the program gives is checked against it: existence, file type, and
// the set of names a directory lists. Writes update it only once the
// program has acknowledged them.

type node struct {
	name   string
	dir    bool
	parent *node
	kids   map[string]*node // directories only
	list   []*node          // kids again, in an order fit for uniform picks
	idx    int              // this node's position in parent.list
}

type model struct {
	root *node
}

func newModel() *model {
	return &model{root: &node{dir: true, kids: map[string]*node{}}}
}

// path returns the node's absolute path.
func (n *node) path() string {
	if n.parent == nil {
		return "/"
	}
	var parts []string
	for c := n; c.parent != nil; c = c.parent {
		parts = append(parts, c.name)
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
}

// child returns the path of name inside directory n.
func (n *node) child(name string) string {
	if n.parent == nil {
		return "/" + name
	}
	return n.path() + "/" + name
}

func (n *node) sortedNames() []string {
	out := make([]string, 0, len(n.kids))
	for name := range n.kids {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// add links a new node under directory parent.
func (m *model) add(parent *node, name string, dir bool) *node {
	n := &node{name: name, dir: dir, parent: parent, idx: len(parent.list)}
	if dir {
		n.kids = map[string]*node{}
	}
	parent.kids[name] = n
	parent.list = append(parent.list, n)
	return n
}

// unlinkNode removes n from its parent.
func (m *model) unlinkNode(n *node) {
	p := n.parent
	delete(p.kids, n.name)
	last := p.list[len(p.list)-1]
	p.list[n.idx] = last
	last.idx = n.idx
	p.list = p.list[:len(p.list)-1]
	n.parent = nil
}

// rename moves n, and with it its subtree, to name in the same directory.
func (m *model) rename(n *node, name string) {
	p := n.parent
	delete(p.kids, n.name)
	n.name = name
	p.kids[name] = n
}

// lookup returns the node at path, or the error a correct walk of path
// must give: ENOENT for a missing component, ENOTDIR for a walk through a
// file.
func (m *model) lookup(path string) (*node, error) {
	n := m.root
	for _, c := range strings.Split(path, "/") {
		if c == "" {
			continue
		}
		if !n.dir {
			return nil, dircache.ErrNotDir
		}
		next, ok := n.kids[c]
		if !ok {
			return nil, dircache.ErrNotExist
		}
		n = next
	}
	return n, nil
}

// compareStat compares one stat answer with want and werr, the model's
// lookup of path. It returns "" when the answer is right, else what is
// wrong.
func compareStat(path string, want *node, werr error, isDir bool, err error) string {
	switch {
	case werr != nil && err == nil:
		return fmt.Sprintf("stat %s: found, model says %v", path, werr)
	case werr != nil && !errors.Is(err, werr):
		return fmt.Sprintf("stat %s: %v, model says %v", path, err, werr)
	case werr == nil && err != nil:
		return fmt.Sprintf("stat %s: %v, model says it exists", path, err)
	case werr == nil && want.dir != isDir:
		return fmt.Sprintf("stat %s: dir=%v, model says dir=%v", path, isDir, want.dir)
	}
	return ""
}

// checkNames compares a directory listing with the model's sorted names.
func checkNames(path string, exp, got []string) string {
	names := make([]string, 0, len(got))
	for _, g := range got {
		if g != "." && g != ".." {
			names = append(names, g)
		}
	}
	sort.Strings(names)
	if len(names) != len(exp) {
		return fmt.Sprintf("readdir %s: %d names, model has %d", path, len(names), len(exp))
	}
	for i := range names {
		if names[i] != exp[i] {
			return fmt.Sprintf("readdir %s: lists %q, model has %q", path, names[i], exp[i])
		}
	}
	return ""
}

// materialize creates the model's tree in the program through p, parents
// before children.
func (m *model) materialize(p *dircache.Process) error {
	var walk func(n *node) error
	walk = func(n *node) error {
		for _, k := range n.list {
			path := k.path()
			var err error
			if k.dir {
				err = p.Mkdir(path, 0o755)
			} else {
				err = p.Create(path, 0o644)
			}
			if err != nil {
				return fmt.Errorf("build %s: %w", path, err)
			}
			if k.dir {
				if err := walk(k); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(m.root)
}

// entries lists every node below the root, depth first.
func (m *model) entries() []*node {
	var out []*node
	var walk func(n *node)
	walk = func(n *node) {
		for _, k := range n.list {
			out = append(out, k)
			if k.dir {
				walk(k)
			}
		}
	}
	walk(m.root)
	return out
}
