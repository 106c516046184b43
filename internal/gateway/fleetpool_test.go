package gateway

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/iotssp"
)

// fleetMACs generates a deterministic probe MAC set.
func fleetMACs(n int) []string {
	macs := make([]string, n)
	for i := range macs {
		macs[i] = fmt.Sprintf("02:9a:%02x:%02x:%02x:%02x", (i>>24)&0xff, (i>>16)&0xff, (i>>8)&0xff, i&0xff)
	}
	return macs
}

// TestFleetPoolConsistentHashBalance: MACs spread across backends
// without any backend starving or hogging the ring.
func TestFleetPoolConsistentHashBalance(t *testing.T) {
	addrs := []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001", "10.0.0.4:7001"}
	f := NewFleetPool(addrs, FleetPoolConfig{})
	defer f.Close()

	counts := make([]int, len(addrs))
	macs := fleetMACs(4000)
	for _, mac := range macs {
		counts[f.home(mac)]++
	}
	for i, c := range counts {
		frac := float64(c) / float64(len(macs))
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("backend %d owns %.1f%% of MACs (counts %v): ring badly unbalanced", i, 100*frac, counts)
		}
	}
}

// TestFleetPoolDeterministicRoutingAcrossRestarts: the MAC→backend map
// is a pure function of the address list, so a rebuilt pool (a gateway
// restart) routes every MAC identically.
func TestFleetPoolDeterministicRoutingAcrossRestarts(t *testing.T) {
	addrs := []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"}
	a := NewFleetPool(addrs, FleetPoolConfig{Pool: PoolConfig{Seed: 5}})
	b := NewFleetPool(addrs, FleetPoolConfig{Pool: PoolConfig{Seed: 99}})
	defer a.Close()
	defer b.Close()
	for _, mac := range fleetMACs(500) {
		if ha, hb := a.home(mac), b.home(mac); ha != hb {
			t.Fatalf("MAC %s routes to %d on one pool, %d on a rebuilt one", mac, ha, hb)
		}
	}
}

// TestFleetPoolOrderPrecomputed: a MAC's failover order is the ring
// walk from its home point — each backend once, in ring order — and
// looking it up allocates nothing.
func TestFleetPoolOrderPrecomputed(t *testing.T) {
	addrs := []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"}
	f := NewFleetPool(addrs, FleetPoolConfig{})
	defer f.Close()
	for _, mac := range fleetMACs(300) {
		h := fingerprint.Mix64(fingerprint.HashString(mac))
		i := sort.Search(len(f.ring), func(j int) bool { return f.ring[j].hash >= h })
		var want []int
		for k := 0; len(want) < len(addrs); k++ {
			if b := f.ring[(i+k)%len(f.ring)].backend; !slices.Contains(want, b) {
				want = append(want, b)
			}
		}
		if got := f.order(mac); !slices.Equal(got, want) {
			t.Fatalf("order(%s) = %v, want the ring walk %v", mac, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { f.order("02:9a:00:00:00:01") }); n != 0 {
		t.Errorf("order allocates %.1f times per call, want 0", n)
	}
}

// TestFleetPoolRebalanceOnEjection: ejecting a backend moves only its
// MACs — each to the next backend on its ring walk — and re-admission
// moves them home again.
func TestFleetPoolRebalanceOnEjection(t *testing.T) {
	addrs := []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"}
	// A probe backoff of an hour keeps the ejected backend out of
	// routing for the whole test.
	f := NewFleetPool(addrs, FleetPoolConfig{ProbeBackoff: time.Hour, MaxProbeBackoff: time.Hour})
	defer f.Close()

	macs := fleetMACs(600)
	before := make(map[string][]int)
	for _, mac := range macs {
		before[mac] = f.order(mac)
	}

	// Eject backend 1 through its breaker, as FailureThreshold
	// consecutive failures would.
	for i := 0; i < f.cfg.FailureThreshold; i++ {
		f.backends[1].breaker.NoteFailure(time.Now())
	}
	if f.backends[1].breaker.State().Healthy {
		t.Fatal("backend 1 still healthy after threshold failures")
	}

	routed := func(mac string) int {
		for _, idx := range f.order(mac) {
			if f.backends[idx].breaker.Admit(time.Now()) {
				return idx
			}
		}
		t.Fatalf("no admitted backend for %s", mac)
		return -1
	}
	moved := 0
	for _, mac := range macs {
		got := routed(mac)
		if before[mac][0] == 1 {
			moved++
			if got != before[mac][1] {
				t.Fatalf("MAC %s homed at ejected backend 1 moved to %d, want next-on-ring %d", mac, got, before[mac][1])
			}
		} else if got != before[mac][0] {
			t.Fatalf("MAC %s not homed at backend 1 moved from %d to %d on ejection", mac, before[mac][0], got)
		}
	}
	if moved == 0 {
		t.Fatal("no MAC was homed at backend 1: balance test is vacuous")
	}

	// Re-admission: everything routes home again.
	f.backends[1].breaker.NoteSuccess()
	for _, mac := range macs {
		if got := routed(mac); got != before[mac][0] {
			t.Fatalf("MAC %s routes to %d after re-admission, want home %d", mac, got, before[mac][0])
		}
	}
}

// fleetPoolHarness starts a replicated service fleet over one shared
// Service and a FleetPool aimed at it.
func fleetPoolHarness(t *testing.T, replicas int, cfg FleetPoolConfig) (*iotssp.Fleet, *FleetPool, *devicesProbe) {
	t.Helper()
	svc := trainedService(t, "Aria", "HueBridge", "EdimaxCam", "WeMoSwitch")
	svcs := make([]*iotssp.Service, replicas)
	for i := range svcs {
		svcs[i] = svc
	}
	fleet := iotssp.NewFleet(svcs, iotssp.ServerConfig{})
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	pool := NewFleetPool(fleet.Addrs(), cfg)
	t.Cleanup(func() { pool.Close() })
	return fleet, pool, probeFor(t, "Aria")
}

// TestFleetPoolServesAcrossReplicas: a working fleet answers for MACs
// homed on every backend.
func TestFleetPoolServesAcrossReplicas(t *testing.T) {
	_, pool, probe := fleetPoolHarness(t, 3, FleetPoolConfig{
		Pool: PoolConfig{Conns: 1, Seed: 7},
	})
	served := make([]int, 3)
	for _, mac := range fleetMACs(24) {
		resp, err := pool.Identify(context.Background(), mac, probe.fp)
		if err != nil {
			t.Fatalf("%s: %v", mac, err)
		}
		if resp.MAC != mac || resp.DeviceType != "Aria" {
			t.Fatalf("%s: %+v", mac, resp)
		}
		served[pool.home(mac)]++
	}
	st := pool.Counters()
	if st.Failovers != 0 || st.Failures != 0 {
		t.Errorf("healthy fleet saw failovers/failures: %+v", st)
	}
	hit := 0
	for i, b := range st.Backends {
		if !b.Healthy {
			t.Errorf("backend %d unhealthy: %+v", i, b)
		}
		if b.Requests > 0 {
			hit++
		}
	}
	if hit < 2 {
		t.Errorf("traffic did not spread across replicas: %+v", st.Backends)
	}
}

// TestFleetPoolFailoverOnBackendKill is the failover drill: kill a
// backend mid-run, every request still gets a verdict (rerouted to a
// healthy replica), the dead backend is ejected after its failure
// streak, and a revived backend is probed back in.
func TestFleetPoolFailoverOnBackendKill(t *testing.T) {
	fleet, pool, probe := fleetPoolHarness(t, 2, FleetPoolConfig{
		Pool:             PoolConfig{Conns: 1, MaxRetries: 1, RetryBackoff: time.Millisecond, Seed: 7},
		FailureThreshold: 2,
		ProbeBackoff:     10 * time.Millisecond,
	})

	macs := fleetMACs(64)
	// Find MACs homed on backend 1 (the one we will kill).
	var victims []string
	for _, mac := range macs {
		if pool.home(mac) == 1 {
			victims = append(victims, mac)
		}
	}
	if len(victims) < 4 {
		t.Fatalf("only %d MACs homed on backend 1", len(victims))
	}

	if err := fleet.Replica(1).Stop(); err != nil {
		t.Fatal(err)
	}

	// Every request must still be answered — the victims by failover.
	for _, mac := range macs {
		resp, err := pool.Identify(context.Background(), mac, probe.fp)
		if err != nil {
			t.Fatalf("verdict lost for %s after backend kill: %v", mac, err)
		}
		if resp.DeviceType != "Aria" {
			t.Fatalf("%s: %+v", mac, resp)
		}
	}
	st := pool.Counters()
	if st.Failovers == 0 {
		t.Error("no failovers recorded after backend kill")
	}
	if st.Failures != 0 {
		t.Errorf("requests failed despite a healthy replica: %+v", st)
	}
	if st.Backends[1].Healthy {
		t.Errorf("dead backend still admitted: %+v", st.Backends[1])
	}
	if st.Backends[1].Ejections == 0 {
		t.Errorf("ejection not recorded: %+v", st.Backends[1])
	}

	// Revive the backend; after the probe backoff its MACs route home.
	if err := fleet.Replica(1).Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, mac := range victims {
			if _, err := pool.Identify(context.Background(), mac, probe.fp); err != nil {
				t.Fatalf("verdict lost during re-admission: %v", err)
			}
		}
		if pool.Counters().Backends[1].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revived backend never re-admitted: %+v", pool.Counters().Backends[1])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := pool.Counters(); st.Backends[1].Readmissions == 0 {
		t.Errorf("re-admission not recorded: %+v", st.Backends[1])
	}
}

// TestFleetPoolFullOutageRecovers: with every backend ejected, the
// pool still pushes a probe through rather than failing fast forever.
func TestFleetPoolFullOutageRecovers(t *testing.T) {
	fleet, pool, probe := fleetPoolHarness(t, 1, FleetPoolConfig{
		Pool:             PoolConfig{Conns: 1, MaxRetries: 1, RetryBackoff: time.Millisecond, Seed: 7},
		FailureThreshold: 1,
		ProbeBackoff:     5 * time.Millisecond,
		MaxProbeBackoff:  20 * time.Millisecond,
	})
	mac := "02:9a:00:00:00:01"
	if err := fleet.Replica(0).Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Identify(context.Background(), mac, probe.fp); err == nil {
		t.Fatal("identify succeeded against a dead fleet")
	}
	if st := pool.Counters(); st.Backends[0].Healthy {
		t.Fatalf("backend not ejected: %+v", st.Backends[0])
	}
	if err := fleet.Replica(0).Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := pool.Identify(context.Background(), mac, probe.fp); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never recovered from full outage")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
