package bench

import (
	"fmt"

	"dircache"
	"dircache/internal/workload"
)

// Deep-tree walk experiment: how lookup cost scales with path depth on
// maven- and node_modules-shaped trees, with directory shortcuts
// (DESIGN §5f: fastpath scans seeded from a cached ancestor) on and off.
// The deterministic half — hashed bytes per warm lookup, seeded scans
// and components saved per cold leaf — is tracked
// across PRs in BENCH_deep.json (DeepTrajectory) and gated by
// `dcbench -smoke`; the timed half reports per-depth ns/op and the
// depth-flatness ratio the acceptance criterion bounds.

// deepShapes are the tree shapes measured; both nest far deeper than
// source trees and are the workloads where walk cost ~ depth.
var deepShapes = []string{"maven", "node"}

// newDeepSystem builds an optimized system with shortcut resume toggled
// and a deterministic deep tree, returning the tree for its spine/leaf
// paths. forceSlow additionally forces every final fastpath probe to
// miss so each lookup takes the slow walk (the forced-slow series).
func newDeepSystem(shape string, depth, leaves int, shortcuts, forceSlow bool) (*dircache.System, *dircache.Process, *workload.DeepTree, error) {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 0xdeeb
	cfg.Features.DirShortcuts = shortcuts
	cfg.ForcePCCMiss = forceSlow
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	tr, err := workload.GenerateDeepTree(p, "/deep", workload.DeepSpec{
		Seed: 11, Depth: depth, Shape: shape, Fanout: 1, Leaves: leaves,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return sys, p, tr, nil
}

// warmDeepSpine publishes every spine directory (two touches each for
// admission) so the deepest ancestor is a legal resume point: in the
// DLHT with a memoized state, and covered by the walking credential's
// PCC.
func warmDeepSpine(p *dircache.Process, tr *workload.DeepTree) error {
	for pass := 0; pass < 2; pass++ {
		for _, d := range tr.Spine {
			if _, err := p.Stat(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// DeepTrajectory runs the deterministic half of the deepwalk experiment
// and returns the flat "series/point" map written to BENCH_deep.json.
// Every metric is a per-operation count (hashed bytes, seeded scans,
// saved components), so it is scale-independent and exact: drift means a
// behavior change, not noise.
func DeepTrajectory(sc Scale) (map[string]float64, error) {
	out := map[string]float64{}
	leaves := sc.DeepLeaves
	for _, shape := range deepShapes {
		for _, depth := range sc.DeepDepths {
			for _, mode := range []struct {
				name      string
				shortcuts bool
			}{{"off", false}, {"on", true}} {
				sys, p, tr, err := newDeepSystem(shape, depth, leaves, mode.shortcuts, false)
				if err != nil {
					return nil, fmt.Errorf("deepwalk %s d%d: %w", shape, depth, err)
				}
				if err := warmDeepSpine(p, tr); err != nil {
					return nil, err
				}

				// Cold-leaf phase: first touch of every leaf misses the
				// fastpath; with shortcuts on, its scan seeds from the
				// published deepest ancestor, and the slow walk still
				// steps every component from the root.
				before := sys.Stats()
				for _, leaf := range tr.Leaves {
					if _, err := p.Stat(leaf); err != nil {
						return nil, err
					}
				}
				cold := sys.Stats().Delta(before)

				// Second touch publishes the leaves; then a warm phase
				// measures steady-state hashing per lookup.
				for _, leaf := range tr.Leaves {
					if _, err := p.Stat(leaf); err != nil {
						return nil, err
					}
				}
				before = sys.Stats()
				warmOps := 0
				for pass := 0; pass < 4; pass++ {
					for _, leaf := range tr.Leaves {
						if _, err := p.Stat(leaf); err != nil {
							return nil, err
						}
						warmOps++
					}
				}
				warm := sys.Stats().Delta(before)
				if warm.FastHits != int64(warmOps) {
					return nil, fmt.Errorf("deepwalk %s d%d %s: %d/%d warm stats fast-hit",
						shape, depth, mode.name, warm.FastHits, warmOps)
				}

				key := func(series string) string {
					return fmt.Sprintf("deep/%s/%s/d%d/%s", shape, series, depth, mode.name)
				}
				out[key("warm_hashbytes")] = float64(warm.HashedBytes) / float64(warmOps)
				out[key("cold_hashbytes")] = float64(cold.HashedBytes) / float64(leaves)
				out[key("resumes_per_leaf")] = float64(cold.ShortcutResumes) / float64(leaves)
				if cold.ShortcutResumes > 0 {
					out[key("saved_per_resume")] = float64(cold.ShortcutDepthSaved) / float64(cold.ShortcutResumes)
				}
			}
			ratioKey := fmt.Sprintf("deep/%s/warm_hashbytes_ratio/d%d", shape, depth)
			on := out[fmt.Sprintf("deep/%s/warm_hashbytes/d%d/on", shape, depth)]
			off := out[fmt.Sprintf("deep/%s/warm_hashbytes/d%d/off", shape, depth)]
			if on > 0 {
				out[ratioKey] = off / on
			}
		}
	}
	return out, nil
}

// Deepwalk reports the deep-tree walk experiment: the deterministic
// hashing/resume trajectory plus timed warm-lookup and forced-slow-walk
// latencies per depth, shortcuts on vs off.
func Deepwalk(sc Scale) (*Report, error) {
	r := newReport("deepwalk", "deep-tree walks: shortcut resume vs path depth",
		"shape", "depth", "config", "warm ns/op", "slow ns/op", "hash B/op", "saved/resume")

	det, err := DeepTrajectory(sc)
	if err != nil {
		return nil, err
	}
	for k, v := range det {
		r.put(k, v)
	}

	// Timed series on the maven shape (the node shape shares the same
	// mechanics; its deterministic counters above cover it).
	const shape = "maven"
	for _, depth := range sc.DeepDepths {
		for _, mode := range []struct {
			name      string
			shortcuts bool
		}{{"off", false}, {"on", true}} {
			warmNS, err := deepWarmNS(shape, depth, sc, mode.shortcuts, false)
			if err != nil {
				return nil, err
			}
			slowNS, err := deepWarmNS(shape, depth, sc, mode.shortcuts, true)
			if err != nil {
				return nil, err
			}
			r.put(fmt.Sprintf("deep/%s/warm_ns/d%d/%s", shape, depth, mode.name), warmNS)
			r.put(fmt.Sprintf("deep/%s/slow_ns/d%d/%s", shape, depth, mode.name), slowNS)
			r.add(shape, fmt.Sprintf("%d", depth), "shortcuts="+mode.name,
				fmtNS(warmNS), fmtNS(slowNS),
				fmt.Sprintf("%.0f", det[fmt.Sprintf("deep/%s/warm_hashbytes/d%d/%s", shape, depth, mode.name)]),
				fmt.Sprintf("%.1f", det[fmt.Sprintf("deep/%s/saved_per_resume/d%d/%s", shape, depth, mode.name)]))
		}
	}
	depths := sc.DeepDepths
	if len(depths) >= 2 {
		shallow := r.Get(fmt.Sprintf("deep/%s/warm_ns/d%d/on", shape, depths[0]))
		deep := r.Get(fmt.Sprintf("deep/%s/warm_ns/d%d/on", shape, depths[len(depths)-1]))
		if shallow > 0 {
			flat := deep / shallow
			r.put("deep/flatness", flat)
			r.note("shortcut resume holds depth-%d warm lookups to %.2fx the cost of depth-%d "+
				"(acceptance ceiling: 1.5x); without it cost scales with depth",
				depths[len(depths)-1], flat, depths[0])
		}
	}
	r.note("deterministic per-op counters (hash bytes, resumes, saved components) are the " +
		"smoke-gated trajectory (BENCH_deep.json); timings are reported, not gated")
	return r, nil
}

// deepWarmNS times steady-state leaf stats on one configuration. With
// forceSlow every stat pays the fastpath scan — seeded at the deepest
// ancestor when shortcuts are on — and then a full slow walk.
func deepWarmNS(shape string, depth int, sc Scale, shortcuts, forceSlow bool) (float64, error) {
	sys, p, tr, err := newDeepSystem(shape, depth, sc.DeepLeaves, shortcuts, forceSlow)
	if err != nil {
		return 0, err
	}
	_ = sys
	if err := warmDeepSpine(p, tr); err != nil {
		return 0, err
	}
	for pass := 0; pass < 2; pass++ {
		for _, leaf := range tr.Leaves {
			if _, err := p.Stat(leaf); err != nil {
				return 0, err
			}
		}
	}
	return nsPerOp(sc.MinMeasure, func(n int) {
		for i := 0; i < n; i++ {
			p.Stat(tr.Leaves[i%len(tr.Leaves)])
		}
	}), nil
}
