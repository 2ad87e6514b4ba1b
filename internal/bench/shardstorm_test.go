package bench

import "testing"

// TestShardTrajectory asserts the deterministic claims the sharded tier
// commits to in BENCH_shard.json: the rename storm leaves zero stale
// reads and no fallbacks, every fanned-out path is applied on every peer,
// and the ring places keys with consistent-hash properties (bounded
// imbalance, ~K/N remap).
func TestShardTrajectory(t *testing.T) {
	m, err := ShardTrajectory(SmallScale())
	if err != nil {
		t.Fatalf("ShardTrajectory: %v", err)
	}
	for _, k := range []string{"shard/stale_reads", "shard/fallbacks", "shard/audit_findings", "shard/lag_after_converge"} {
		if m[k] != 0 {
			t.Errorf("%s = %.0f, want 0", k, m[k])
		}
	}
	if m["shard/published"] == 0 {
		t.Error("no mutated paths fanned out")
	}
	if want := m["shard/published"] * (m["shard/shards"] - 1); m["shard/applied"] != want {
		t.Errorf("applied = %.0f, want published*(shards-1) = %.0f", m["shard/applied"], want)
	}
	if s := m["shard/balance_max_share"]; s <= 0 || s > 0.6 {
		t.Errorf("balance_max_share = %.2f, want (0, 0.6] (ideal 1/%0.f = %.2f)",
			s, m["shard/shards"], 1/m["shard/shards"])
	}
	if f := m["shard/remap_4to5"]; f <= 0 || f > 0.45 {
		t.Errorf("remap_4to5 = %.2f, want (0, 0.45] (ideal 1/5 = 0.20)", f)
	}
}

// TestShardstormSpeedup asserts the tier's capacity claim on the
// sum-of-isolated-rates measurement (one core models one instance per
// node, so the ratio is structural, ~shards-x): 4 shards must deliver at
// least 3x the 1-shard aggregate warm stat rate.
func TestShardstormSpeedup(t *testing.T) {
	rep, err := Shardstorm(SmallScale())
	if err != nil {
		t.Fatalf("Shardstorm: %v", err)
	}
	if sp := rep.Get("shard/speedup"); sp < 3 {
		t.Errorf("aggregate warm stat speedup = %.2fx, want >= 3x (agg1=%.0f/s agg4=%.0f/s)",
			sp, rep.Get("shard/agg_statps_1"), rep.Get("shard/agg_statps_4"))
	}
	if rep.Get("shard/stale_reads") != 0 {
		t.Errorf("stale reads = %.0f, want 0", rep.Get("shard/stale_reads"))
	}
}
