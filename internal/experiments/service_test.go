package experiments

import (
	"strings"
	"testing"
)

// TestRunServiceSpeedupAndCacheHitRate drives the full multi-gateway
// load experiment at a reduced-but-representative scale and checks the
// headline claims: the batched + warm-cache service mode sustains at
// least twice the per-request baseline throughput at batch size >= 8,
// and the run reports a warm cache hit rate.
func TestRunServiceSpeedupAndCacheHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("load experiment in -short mode")
	}
	res, err := RunService(ServiceConfig{
		Load: Load{
			Runs:      6,
			Trees:     250,
			Requests:  384,
			BatchSize: 16,
			Seed:      5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize < 8 {
		t.Fatalf("batch size %d, want >= 8", res.BatchSize)
	}
	if res.BaselinePerSec <= 0 || res.ServicePerSec <= 0 {
		t.Fatalf("degenerate rates: %+v", res)
	}
	if res.Speedup < 2 {
		t.Errorf("speedup = %.2fx, want >= 2x (baseline %.0f/s, service %.0f/s)",
			res.Speedup, res.BaselinePerSec, res.ServicePerSec)
	}
	if res.CacheHitRate < 0.95 {
		t.Errorf("warm cache hit rate = %.2f, want >= 0.95", res.CacheHitRate)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("latency percentiles inconsistent: p50=%s p99=%s", res.P50, res.P99)
	}
	if res.Stats.Overloaded != 0 {
		t.Errorf("experiment tripped backpressure: %+v", res.Stats)
	}

	out := res.RenderService()
	for _, want := range []string{"cache hit rate", "per-request", "batched + warm cache", "dispatcher"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunServiceTinyConfig exercises the experiment plumbing (both
// serving modes, warm-up, stats accounting) at minimal cost.
func TestRunServiceTinyConfig(t *testing.T) {
	res, err := RunService(ServiceConfig{
		Load: Load{
			Types:       4,
			Runs:        4,
			Trees:       15,
			ProbeModels: 1,
			Requests:    48,
			Gateways:    2,
			InFlight:    4,
			BatchSize:   8,
			Seed:        9,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 48 || res.EnrolledTypes != 4 {
		t.Errorf("config not honored: %+v", res)
	}
	st := res.Stats
	if st.Requests == 0 || st.Batches == 0 {
		t.Errorf("server stats empty: %+v", st)
	}
	if st.Cache.Hits+st.Cache.Shared == 0 {
		t.Errorf("fleet replay never hit the verdict cache: %+v", st.Cache)
	}
}
