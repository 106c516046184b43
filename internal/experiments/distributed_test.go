package experiments

import (
	"repro/internal/iotssp"

	"strings"
	"testing"
)

// TestRunDistributedTinyConfig exercises the whole distributed-bank
// drill at minimal cost: bit-equal verdicts against the all-local
// baseline, the mid-run remote-shard restart with zero lost verdicts,
// and the remote-enrolment invalidation counters (RunDistributed itself
// errors if any of those properties fail).
func TestRunDistributedTinyConfig(t *testing.T) {
	res, err := RunDistributed(DistributedConfig{
		Load: Load{
			Types:       5,
			Runs:        5,
			Trees:       15,
			ProbeModels: 1,
			Requests:    96,
			Gateways:    2,
			InFlight:    4,
			BatchSize:   8,
			Seed:        13,
		},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches != 0 || res.Lost != 0 {
		t.Fatalf("mismatches=%d lost=%d", res.Mismatches, res.Lost)
	}
	if !res.ShardKilled || !res.Restarted {
		t.Errorf("shard restart drill did not run: killed=%v restarted=%v", res.ShardKilled, res.Restarted)
	}
	if res.RemoteShard != 5%2 {
		t.Errorf("remote shard index = %d, want %d", res.RemoteShard, 5%2)
	}
	if res.CanaryShard != res.RemoteShard {
		t.Errorf("canary enrolled into shard %d, want the remote shard %d", res.CanaryShard, res.RemoteShard)
	}
	covered := res.DependentProbes + res.IndependentProbes
	if covered == 0 || covered > res.EnrolledTypes {
		t.Errorf("invalidation check covered %d+%d distinct probes, want (0, %d]",
			res.DependentProbes, res.IndependentProbes, res.EnrolledTypes)
	}
	if res.BaselinePerSec <= 0 || res.DistributedPerSec <= 0 {
		t.Fatalf("degenerate rates: %+v", res)
	}
	if res.Metrics == nil || countKind(res.Metrics, "server") != 2 || countKind(res.Metrics, "remote_shard") != 1 {
		t.Fatalf("metrics snapshot incomplete: %+v", res.Metrics)
	}
	if rs := unmarshalKind[iotssp.RemoteShardStats](t, res.Metrics, "remote_shard")[0]; rs.Requests == 0 || rs.Retries == 0 {
		t.Errorf("remote shard saw no traffic or no restart retries: %+v", rs)
	}

	out := res.RenderDistributed()
	for _, want := range []string{"all-local sharded bank", "across the wire", "failure drill", "remote invalidation", "metrics:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunDistributedWireDict runs the same drill with the remote
// shard's dictionary wire on: RunDistributed itself asserts bit-equal
// verdicts (including the wire-off twin phase), zero lost across the
// shard restart — which also proves dictionaries reset coherently
// across the kill+revive — and at least the required compression gain.
func TestRunDistributedWireDict(t *testing.T) {
	for _, wire := range []iotssp.WireMode{iotssp.WireDict} {
		t.Run(wire.String(), func(t *testing.T) {
			res, err := RunDistributed(DistributedConfig{
				Load: Load{
					Types:       5,
					Runs:        5,
					Trees:       15,
					ProbeModels: 1,
					Requests:    512,
					Gateways:    2,
					InFlight:    8,
					BatchSize:   16,
					Seed:        13,
				},
				Shards:      2,
				Wire:        wire,
				MinWireGain: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Mismatches != 0 || res.Lost != 0 {
				t.Fatalf("mismatches=%d lost=%d", res.Mismatches, res.Lost)
			}
			if !res.ShardKilled || !res.Restarted {
				t.Errorf("shard restart drill did not run: killed=%v restarted=%v", res.ShardKilled, res.Restarted)
			}
			if res.WireGain < 5 {
				t.Fatalf("wire gain %.2fx, want >= 5x (on %.1f B/verdict, off %.1f)", res.WireGain, res.BytesPerVerdict, res.BytesPerVerdictOff)
			}
			if res.DictHitRate <= 0.5 {
				t.Errorf("dict hit rate %.2f on a recurring-model workload, want > 0.5", res.DictHitRate)
			}
			out := res.RenderDistributed()
			if !strings.Contains(out, "wire compression ("+wire.String()+")") {
				t.Errorf("render missing the wire-compression line:\n%s", out)
			}
		})
	}
}

// TestRunDistributedRejectsFullCatalog: the canary type must exist
// beyond the enrolled set.
func TestRunDistributedRejectsFullCatalog(t *testing.T) {
	if _, err := RunDistributed(DistributedConfig{Load: Load{Types: 27}}); err == nil {
		t.Error("full-catalog distributed config accepted despite having no canary type left")
	}
}
