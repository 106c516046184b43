package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/enforce"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/ml"
	"repro/internal/packet"
	"repro/internal/sniff"
	"repro/internal/vulndb"
)

// verdict is the part of a response the oracle checks.
type verdict struct {
	typ   string
	known bool
	level string
}

// topology is one workload's running system plus the oracle verdict of
// every input, computed before anything is served.
type topology struct {
	sp *spec
	in *inputs

	// writer is the single bank (or the local partition's bank) the
	// churn writer enrols into.
	writer  *core.Bank
	cluster *controlplane.Cluster // remote topology only
	remote  *iotssp.RemoteShard   // remote topology only
	svc     *iotssp.Service
	srv     *iotssp.Server

	pools  []*gateway.Pool
	gwPool *gateway.Pool
	idents []gateway.Identifier // the pools as the generator sees them (behind the recorder when traced)
	gwID   gateway.Identifier   // the gateway's identifier, likewise
	gw     *gateway.Gateway
	next   atomic.Uint64 // the run's request counter: every request a fresh MAC
	// firstWrong describes the first served verdict that differed from
	// its oracle, for the run's problem report.
	firstWrong atomic.Pointer[string]

	// Set only on a traced build.
	tBank   *tracedBank
	tShard  *tracedShard
	tGwID   *tracedIdentifier
	trainMs float64 // ml.train_ms_per_forest
	asmMs   float64 // controlplane.assemble_ms

	streamOracle []verdict          // per stream fingerprint
	deviceOracle []verdict          // per onboarded device
	pcapOracle   map[string]verdict // per capture MAC
	forwardAllow []bool             // per standby packet, once every device has joined the current gateway
}

func coreConfig(seed int64) core.BankConfig {
	return core.BankConfig{Forest: ml.ForestConfig{Trees: forestTrees}, Seed: seed}
}

// oracleOf turns a plain bank identification into the expected verdict
// through the vulnerability repository, independently of iotssp.Service.
func oracleOf(res core.Result, db *vulndb.DB) verdict {
	if !res.Known {
		return verdict{level: enforce.Strict.String()}
	}
	return verdict{typ: res.Type, known: true, level: db.Assess(res.Type).Level().String()}
}

func (v verdict) matches(r iotssp.Response) bool {
	return r.Error == "" && r.Known == v.known && r.DeviceType == v.typ && r.Level == v.level
}

// buildTopology trains the bank, computes the oracle, starts the server
// on loopback and warms the clients. rec selects a traced build.
func buildTopology(sp *spec, in *inputs, rec *recorder) (*topology, error) {
	t := &topology{sp: sp, in: in}
	cfg := coreConfig(in.seed)
	db := vulndb.Seeded()
	endpoints := make(map[string][]string)
	for _, name := range devices.Names() {
		endpoints[name] = []string{devices.CloudIP(name + ".cloud.example.com").String()}
	}

	// plain is the unserved bank every oracle comes from.
	var plain, served iotssp.Bank
	if sp.remote {
		start := time.Now()
		topo := controlplane.Topology{}
		for p, types := range controlplane.RoundRobin(devices.Names(), 2) {
			topo.Partitions = append(topo.Partitions, controlplane.PartitionSpec{Types: types, Local: p == 0})
		}
		cl, err := controlplane.Assemble(controlplane.ClusterConfig{
			Core:  cfg,
			Shard: iotssp.RemoteShardConfig{Wire: iotssp.WireDict, Seed: in.seed},
			DB:    db,
		}, topo, in.train)
		if err != nil {
			return nil, fmt.Errorf("assembling cluster: %w", err)
		}
		t.asmMs = ms(time.Since(start))
		t.cluster = cl
		t.writer = cl.MemberBank(0, 0)
		t.remote = cl.Bank().Shard(1).(*iotssp.RemoteShard)
		served = cl.Bank()
		if rec != nil {
			t.tShard = &tracedShard{Shard: t.remote, rec: rec}
			sb, err := core.NewShardedBankFrom(cfg, []core.Shard{cl.Bank().Shard(0), t.tShard})
			if err != nil {
				t.close()
				return nil, err
			}
			served = sb
		}
		start = time.Now()
		twin, err := core.TrainSharded(cfg, 2, in.train)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("training the all-local twin: %w", err)
		}
		t.trainMs = ms(time.Since(start)) / float64(len(in.train))
		plain = twin
	} else {
		start := time.Now()
		bank, err := core.Train(cfg, in.train)
		if err != nil {
			return nil, fmt.Errorf("training bank: %w", err)
		}
		t.trainMs = ms(time.Since(start)) / float64(len(in.train))
		t.writer = bank
		served = bank
		plain = bank
	}

	if err := t.computeOracle(plain, db); err != nil {
		t.close()
		return nil, err
	}

	if rec != nil {
		t.tBank = &tracedBank{Bank: served, rec: rec}
		served = t.tBank
	}
	t.svc = iotssp.NewService(served, iotssp.ServiceConfig{DB: db, Endpoints: endpoints})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	addr := lis.Addr().String()
	t.srv = iotssp.NewServer(t.svc, iotssp.ServerConfig{})
	go t.srv.Serve(lis) // returns nil once close() closes the server

	// Retries deep enough that a host stall which fills the server's
	// queue costs the stalled requests latency (and shows as retries and
	// missed latency limits), not verdicts.
	newPool := func(k int) *gateway.Pool {
		return gateway.NewPool(addr, gateway.PoolConfig{Conns: 1, Timeout: 5 * time.Second, MaxRetries: 8, Seed: in.seed + int64(k)})
	}
	for k := 0; k < genPools; k++ {
		p := newPool(k)
		t.pools = append(t.pools, p)
		if rec != nil {
			t.idents = append(t.idents, &tracedIdentifier{inner: p, rec: rec})
		} else {
			t.idents = append(t.idents, p)
		}
	}
	t.gwPool = newPool(genPools)
	t.gwID = t.gwPool
	if rec != nil {
		t.tGwID = &tracedIdentifier{inner: t.gwPool, rec: rec}
		t.gwID = t.tGwID
	}
	t.newGateway()

	if err := t.verifySynthetic(); err != nil {
		t.close()
		return nil, err
	}
	if err := t.warm(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// newGateway replaces the filtering gateway with a fresh one that no
// device has joined yet; every round of the journey onboards into its
// own.
func (t *topology) newGateway() {
	if t.gw != nil {
		t.gw.Drain()
		t.gw.Close()
	}
	in := t.in
	t.gw = gateway.New(gateway.GatewayConfig{
		MAC:       in.env.GatewayMAC,
		IP:        in.env.GatewayIP,
		LocalNet:  packet.MustParseIP4("192.168.1.0"),
		Filtering: true,
		PSKSeed:   in.seed,
	}, t.gwID)
	// The engine is the forwarding oracle; like the compiled flow rules
	// it must treat the gateway's own address as reachable.
	t.gw.MarkInfrastructure(in.env.GatewayMAC)
	t.forwardAllow = nil
}

func (t *topology) computeOracle(plain iotssp.Bank, db *vulndb.DB) error {
	in := t.in
	identify := plain.Identify
	t.streamOracle = make([]verdict, len(in.stream))
	for i, res := range plain.IdentifyBatch(in.stream, 0) {
		t.streamOracle[i] = oracleOf(res, db)
	}
	t.deviceOracle = make([]verdict, len(in.devices))
	for i := range in.devices {
		fp, err := captureOf(&in.devices[i])
		if err != nil {
			return err
		}
		t.deviceOracle[i] = oracleOf(identify(fp), db)
	}
	caps, err := sniff.ReadPcap(bytes.NewReader(in.pcap), sniff.GatewayConfig())
	if err != nil {
		return fmt.Errorf("reading the capture file serially: %w", err)
	}
	if len(caps) != in.pcapDevices {
		return fmt.Errorf("capture file holds %d setup captures, want %d", len(caps), in.pcapDevices)
	}
	t.pcapOracle = make(map[string]verdict, len(caps))
	for _, c := range caps {
		t.pcapOracle[c.MAC.String()] = oracleOf(identify(c.Fingerprint()), db)
	}
	return nil
}

// verifySynthetic enrols the churn writer's type once and checks that
// no read fingerprint is accepted by it, so the oracle holds while the
// writer runs.
func (t *topology) verifySynthetic() error {
	if err := t.writer.Enroll(churnType, t.in.synthetic); err != nil {
		return fmt.Errorf("enrolling %s: %w", churnType, err)
	}
	defer t.writer.Remove(churnType) // cannot fail: enrolled just above
	for i, accepted := range t.writer.ClassifyBatch(t.in.stream, 0) {
		for _, name := range accepted {
			if name == churnType {
				return fmt.Errorf("%s accepts stream fingerprint %d: the churn oracle would not hold", churnType, i)
			}
		}
	}
	return nil
}

// warmSource is the request stream of the untimed warm-up. The miss
// stream is warmed from its tail, which the cache has evicted long
// before the cyclic measured phases reach it.
type warmSource struct{ t *topology }

func (w warmSource) index(i uint64) int {
	n := uint64(len(w.t.in.stream))
	if w.t.sp.miss {
		return int(n - 1 - i%n)
	}
	return int(i % n)
}

func (w warmSource) request(i uint64) (string, *fingerprint.Fingerprint) {
	return requestMAC(w.t.in.seed, 0xff000000+i), w.t.in.stream[w.index(i)]
}

func (w warmSource) correct(i uint64, resp iotssp.Response) bool {
	return w.t.streamOracle[w.index(i)].matches(resp)
}

// warm drives the clients closed-loop for warmFor so connections,
// dictionaries, buffer pools and the verdict cache are in steady state
// before anything is timed.
func (t *topology) warm() error {
	var next atomic.Uint64
	res := closedLoop(t.idents, genInFlight, warmFor, warmSource{t}, &next)
	if res.failed > 0 || res.ok == 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", res.failed, res.ok+res.failed)
	}
	if _, err := t.gwID.Identify(context.Background(), requestMAC(t.in.seed, 0xfe000000), t.in.stream[0]); err != nil {
		return fmt.Errorf("warming the gateway's pool: %w", err)
	}
	return nil
}

// close stops everything buildTopology started and waits for it.
func (t *topology) close() error {
	var errs []error
	if t.gw != nil {
		t.gw.Drain()
		t.gw.Close()
	}
	for _, p := range append(t.pools, t.gwPool) {
		if p != nil {
			errs = append(errs, p.Close())
		}
	}
	if t.srv != nil {
		errs = append(errs, t.srv.Close())
	}
	if t.cluster != nil {
		errs = append(errs, t.cluster.Close())
	}
	return errors.Join(errs...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
