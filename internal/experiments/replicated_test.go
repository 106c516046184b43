package experiments

import (
	"repro/internal/iotssp"

	"runtime"
	"strings"
	"testing"
)

// TestRunReplicatedShardsTinyConfig exercises the whole
// replicated-shard drill at minimal cost: bit-equal verdicts against
// the single-replica reference in both group phases, the mid-run
// member restart with zero lost verdicts and a bounded p99, and the
// fan-out enrolment with exactly-once invalidation (RunReplicatedShards
// itself errors if any of those properties fail).
func TestRunReplicatedShardsTinyConfig(t *testing.T) {
	ratio := 0.0
	if runtime.GOMAXPROCS(0) >= 4 {
		// The latency assertion needs parallel hardware, like the fleet
		// experiment's scaling gate: on a starved box scheduler noise
		// dwarfs the failover cost being measured.
		ratio = 2.0
	}
	res, err := RunReplicatedShards(ReplicatedConfig{
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
		Shards:      2,
		Replicas:    2,
		MaxP99Ratio: ratio,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MismatchesNoKill != 0 || res.MismatchesKill != 0 || res.Lost != 0 {
		t.Fatalf("mismatches=%d+%d lost=%d", res.MismatchesNoKill, res.MismatchesKill, res.Lost)
	}
	if !res.MemberKilled || !res.Restarted {
		t.Errorf("member restart drill did not run: killed=%v restarted=%v", res.MemberKilled, res.Restarted)
	}
	if res.Ejections == 0 && res.Failovers == 0 {
		t.Errorf("restart left no health trace: %+v", res)
	}
	if res.ReplicatedShard != 5%2 {
		t.Errorf("replicated shard index = %d, want %d", res.ReplicatedShard, 5%2)
	}
	if res.CanaryShard != res.ReplicatedShard {
		t.Errorf("canary enrolled into shard %d, want the group shard %d", res.CanaryShard, res.ReplicatedShard)
	}
	covered := res.DependentProbes + res.IndependentProbes
	if covered == 0 || covered > res.EnrolledTypes {
		t.Errorf("invalidation check covered %d+%d distinct probes, want (0, %d]",
			res.DependentProbes, res.IndependentProbes, res.EnrolledTypes)
	}
	if res.SinglePerSec <= 0 || res.GroupPerSec <= 0 || res.KillPerSec <= 0 {
		t.Fatalf("degenerate rates: %+v", res)
	}
	groups := unmarshalKind[iotssp.ShardGroupStats](t, res.Metrics, "shard_group")
	if res.Metrics == nil || len(groups) != 1 || len(groups[0].Members) != 2 {
		t.Fatalf("metrics snapshot incomplete: %+v", res.Metrics)
	}
	for i, m := range groups[0].Members {
		if m.Requests == 0 {
			t.Errorf("group member %d saw no traffic: %+v", i, m)
		}
		if m.Shard.Transport.Dials == 0 {
			t.Errorf("group member %d transport never dialed: %+v", i, m.Shard)
		}
	}

	out := res.RenderReplicated()
	for _, want := range []string{"single-replica remote shard", "shard group", "failure drill", "fan-out invalidation", "metrics:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunReplicatedShardsWireDict runs the replicated drill with the
// members' dictionary wire on: RunReplicatedShards itself asserts
// bit-equal verdicts in both group phases and in the wire-off twin,
// zero lost across the member kill+revive (dictionaries reset
// coherently on the revived member's fresh connections), and at least
// the required compression gain over the uncompressed twin.
func TestRunReplicatedShardsWireDict(t *testing.T) {
	for _, wire := range []iotssp.WireMode{iotssp.WireDict} {
		t.Run(wire.String(), func(t *testing.T) {
			res, err := RunReplicatedShards(ReplicatedConfig{
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
				Replicas:    2,
				Wire:        wire,
				MinWireGain: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.MismatchesNoKill != 0 || res.MismatchesKill != 0 || res.Lost != 0 {
				t.Fatalf("mismatches=%d+%d lost=%d", res.MismatchesNoKill, res.MismatchesKill, res.Lost)
			}
			if !res.MemberKilled || !res.Restarted {
				t.Errorf("member restart drill did not run: killed=%v restarted=%v", res.MemberKilled, res.Restarted)
			}
			if res.WireGain < 5 {
				t.Fatalf("wire gain %.2fx, want >= 5x (on %.1f B/verdict, off %.1f)", res.WireGain, res.BytesPerVerdict, res.BytesPerVerdictOff)
			}
			if res.DictHitRate <= 0.5 {
				t.Errorf("dict hit rate %.2f on a recurring-model workload, want > 0.5", res.DictHitRate)
			}
			if !strings.Contains(res.RenderReplicated(), "wire compression ("+wire.String()+")") {
				t.Errorf("render missing the wire-compression line:\n%s", res.RenderReplicated())
			}
		})
	}
}

// TestRunReplicatedShardsRejectsBadConfigs: the canary type must exist
// beyond the enrolled set, and a one-member group is not replication.
func TestRunReplicatedShardsRejectsBadConfigs(t *testing.T) {
	if _, err := RunReplicatedShards(ReplicatedConfig{Load: Load{Types: 27}}); err == nil {
		t.Error("full-catalog replicated config accepted despite having no canary type left")
	}
	if _, err := RunReplicatedShards(ReplicatedConfig{Load: Load{Types: 5}, Replicas: 1}); err == nil {
		t.Error("single-member shard group accepted")
	}
}
