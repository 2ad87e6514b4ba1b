package bench

import (
	"fmt"
	"testing"
)

// TestDeepwalkShape asserts the acceptance criteria of the shortcut
// resume optimization on the deterministic trajectory: >= 2x fewer
// hashed bytes per warm lookup at depth 32 on both tree shapes, and
// depth-independent hashing with shortcuts on (depth 64 within 1.5x of
// depth 16).
func TestDeepwalkShape(t *testing.T) {
	det, err := DeepTrajectory(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range deepShapes {
		if ratio := det[fmt.Sprintf("deep/%s/warm_hashbytes_ratio/d32", shape)]; ratio < 2 {
			t.Errorf("%s: want >= 2x hashed-byte reduction at depth 32, got %.2fx", shape, ratio)
		}
		on16 := det[fmt.Sprintf("deep/%s/warm_hashbytes/d16/on", shape)]
		on64 := det[fmt.Sprintf("deep/%s/warm_hashbytes/d64/on", shape)]
		if on16 <= 0 || on64/on16 > 1.5 {
			t.Errorf("%s: warm hashing should be depth-flat with shortcuts on: d16=%.1f d64=%.1f", shape, on16, on64)
		}
		off16 := det[fmt.Sprintf("deep/%s/warm_hashbytes/d16/off", shape)]
		off64 := det[fmt.Sprintf("deep/%s/warm_hashbytes/d64/off", shape)]
		if off64 <= off16 {
			t.Errorf("%s: without shortcuts hashing must scale with depth: d16=%.1f d64=%.1f", shape, off16, off64)
		}
		for _, depth := range SmallScale().DeepDepths {
			// Each cold leaf's fastpath scan seeds once; the slow walk
			// that follows never resumes.
			if got := det[fmt.Sprintf("deep/%s/resumes_per_leaf/d%d/on", shape, depth)]; got != 1 {
				t.Errorf("%s d%d: want exactly one seeded scan per cold leaf, got %.4f", shape, depth, got)
			}
			if det[fmt.Sprintf("deep/%s/resumes_per_leaf/d%d/off", shape, depth)] != 0 {
				t.Errorf("%s d%d: resumes counted with the feature off", shape, depth)
			}
			if saved := det[fmt.Sprintf("deep/%s/saved_per_resume/d%d/on", shape, depth)]; saved < float64(depth)/2 {
				t.Errorf("%s d%d: resumes should skip most of the spine, saved %.1f", shape, depth, saved)
			}
		}
	}
}

// TestDeepwalkReport runs the timed experiment end to end and checks the
// latency acceptance criterion: with shortcuts on, depth-64 warm lookups
// cost at most 1.5x depth-16 ones. Timing-based, so it retries like the
// other shape tests.
func TestDeepwalkReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timed experiment")
	}
	retryShape(t, Deepwalk, func(r *Report) error {
		flat := r.Get("deep/flatness")
		if flat <= 0 || flat > 1.5 {
			return fmt.Errorf("depth-64 warm lookups cost %.2fx depth-16 with shortcuts on (ceiling 1.5x)\n%s", flat, r)
		}
		slowOn := r.Get("deep/maven/slow_ns/d64/on")
		slowOff := r.Get("deep/maven/slow_ns/d64/off")
		if slowOn <= 0 || slowOff <= slowOn {
			return fmt.Errorf("depth-64 forced slow walks should be cheaper with a seeded scan: on=%.0f off=%.0f", slowOn, slowOff)
		}
		return nil
	})
}
