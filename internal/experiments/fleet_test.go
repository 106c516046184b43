package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// TestRunFleetTinyConfig exercises the whole fleet drill at minimal
// cost: baseline + fleet phases, the mid-run backend kill with zero
// lost verdicts, failover accounting, and the shard-scoped cache
// invalidation counters (RunFleet itself errors if any of those
// properties fail).
func TestRunFleetTinyConfig(t *testing.T) {
	res, err := RunFleet(FleetConfig{
		Load: Load{
			Types:       6,
			Runs:        5,
			Trees:       15,
			ProbeModels: 1,
			Requests:    96,
			Gateways:    2,
			InFlight:    4,
			BatchSize:   8,
			Seed:        11,
		},
		Shards:   2,
		Backends: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d verdicts", res.Lost)
	}
	if res.KilledBackend != 1 || res.Failovers == 0 {
		t.Errorf("kill drill did not run: killed=%d failovers=%d", res.KilledBackend, res.Failovers)
	}
	if !res.Restarted {
		t.Errorf("killed backend was not revived")
	}
	if res.BaselinePerSec <= 0 || res.FleetPerSec <= 0 {
		t.Fatalf("degenerate rates: %+v", res)
	}
	covered := res.DependentProbes + res.IndependentProbes
	if covered == 0 || covered > res.EnrolledTypes {
		t.Errorf("invalidation check covered %d+%d distinct probes, want (0, %d]",
			res.DependentProbes, res.IndependentProbes, res.EnrolledTypes)
	}
	if res.Metrics == nil || countKind(res.Metrics, "server") != 2 || countKind(res.Metrics, "fleet_pool") != 2 {
		t.Fatalf("metrics snapshot incomplete: %+v", res.Metrics)
	}

	out := res.RenderFleet()
	for _, want := range []string{"single backend", "sharded fleet", "failure drill", "shard-scoped invalidation", "metrics:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunFleetScalesOverSingleBackend drives the fleet at a
// representative scale and checks the headline scaling claim: more
// backends and shards sustain higher throughput than the single-backend
// baseline, even while absorbing a backend kill. Replicas on one
// machine scale by occupying more cores (more accept loops, dispatchers
// and pumps), so the assertion only holds on parallel hardware; on
// narrow machines the run still verifies zero lost verdicts, failover
// and invalidation, and reports the measured ratio.
func TestRunFleetScalesOverSingleBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet load experiment in -short mode")
	}
	res, err := RunFleet(FleetConfig{
		Load: Load{
			Runs:     6,
			Trees:    100,
			Requests: 4096,
			Seed:     5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fleet scaling: %.2fx (baseline %.0f/s, fleet %.0f/s, %d failovers)",
		res.Scaling, res.BaselinePerSec, res.FleetPerSec, res.Failovers)
	if runtime.GOMAXPROCS(0) >= 4 && res.Scaling <= 1.0 {
		t.Errorf("fleet did not scale on %d-way hardware: %.2fx (baseline %.0f/s, fleet %.0f/s)",
			runtime.GOMAXPROCS(0), res.Scaling, res.BaselinePerSec, res.FleetPerSec)
	}
	if res.CacheHitRate < 0.9 {
		t.Errorf("warm fleet hit rate = %.2f", res.CacheHitRate)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("latency percentiles inconsistent: p50=%s p99=%s", res.P50, res.P99)
	}
}

// TestRunFleetRejectsFullCatalog: the canary type must exist beyond the
// enrolled set.
func TestRunFleetRejectsFullCatalog(t *testing.T) {
	if _, err := RunFleet(FleetConfig{Load: Load{Types: 27}}); err == nil {
		t.Error("full-catalog fleet config accepted despite having no canary type left")
	}
}
