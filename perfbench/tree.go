package main

import (
	"fmt"
	"math/rand"
)

// Tree shapes, each drawn from the run's seed: the same seed gives the same
// tree, names included.

var (
	topNames  = []string{"arch", "block", "crypto", "drivers", "fs", "include", "init", "ipc", "kernel", "lib", "mm", "net", "scripts", "security", "sound", "virt"}
	subNames  = []string{"core", "ext4", "proc", "sysfs", "x86", "util", "hash", "cache", "sched", "irq", "pci", "usb", "tty", "vfs", "nfs"}
	fileStems = []string{"main", "super", "inode", "dentry", "namei", "file", "ioctl", "mount", "readdir", "lookup", "alloc", "bitmap", "journal", "xattr", "acl"}
	fileExts  = []string{".c", ".h", ".S", ".o", ".txt"}
	// mavenSpine is the deep, narrow path of a Java project's sources.
	mavenSpine = []string{"src", "main", "java", "org", "apache", "maven", "plugins", "shade", "resource", "internal", "impl", "util"}
)

// sourceTree builds a source-checkout-shaped namespace of about 10k
// entries under /src: subsystem directories three levels deep with a dozen
// or so files each, plus two deep maven spines with files at every level.
// The shape is the same for every seed; the seed draws the names.
func sourceTree(rng *rand.Rand) *model {
	m := newModel()
	src := m.add(m.root, "src", true)
	files := func(d *node, n int) {
		for i := 0; i < n; i++ {
			stem := fileStems[rng.Intn(len(fileStems))]
			// The index keeps names unique within d.
			m.add(d, fmt.Sprintf("%s%d%s", stem, len(d.list), fileExts[rng.Intn(len(fileExts))]), false)
		}
	}
	subdir := func(d *node, i int) *node {
		return m.add(d, fmt.Sprintf("%s%d", subNames[rng.Intn(len(subNames))], i), true)
	}
	for _, name := range topNames {
		top := m.add(src, name, true)
		files(top, 8)
		for s := 0; s < 6; s++ {
			sub := subdir(top, s)
			files(sub, 12)
			for l := 0; l < 4; l++ {
				files(subdir(sub, l), 20)
			}
		}
	}
	for _, project := range []string{"maven-shade", "maven-core"} {
		d := m.add(src, project, true)
		for _, c := range mavenSpine {
			d = m.add(d, c, true)
			files(d, 3)
		}
		files(d, 60)
	}
	return m
}

// churnTree builds /c with dirs directories of filesPer files each.
func churnTree(dirs, filesPer int) *model {
	m := newModel()
	base := m.add(m.root, "c", true)
	for i := 0; i < dirs; i++ {
		d := m.add(base, fmt.Sprintf("d%03d", i), true)
		for j := 0; j < filesPer; j++ {
			m.add(d, fmt.Sprintf("f%02d", j), false)
		}
	}
	return m
}

// tierTree builds /t/aNN/bNN with files in every leaf directory.
func tierTree(tops, subs, filesPer int) *model {
	m := newModel()
	base := m.add(m.root, "t", true)
	for i := 0; i < tops; i++ {
		a := m.add(base, fmt.Sprintf("a%02d", i), true)
		for j := 0; j < subs; j++ {
			b := m.add(a, fmt.Sprintf("b%02d", j), true)
			for k := 0; k < filesPer; k++ {
				m.add(b, fmt.Sprintf("f%02d", k), false)
			}
		}
	}
	return m
}
