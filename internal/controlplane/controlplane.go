// Package controlplane assembles the serving topology of a distributed
// IoT Security Service deployment: which partition of the classifier
// bank lives where, and the verdict frontends above it.
//
// # Declarative topology, assembled clusters
//
// A Topology is a declarative spec: an ordered list of PartitionSpecs,
// each naming the device-types a partition owns and whether it is
// served in-process (Local) or by one shard server behind the shard
// wire protocol. Assemble turns (ClusterConfig, Topology, training
// set) into a running Cluster: every partition's bank is trained,
// remote partitions are hosted behind a restartable shard replica and
// reached through a RemoteShard client, the partitions are joined into
// one logical core.ShardedBank, and Frontends verdict servers are
// started over a shared iotssp.Service. The hand-rolled wiring the
// serving experiments used to repeat — train, shard, serve, client,
// front — is this one call. The topology is fixed from then on: a new
// device-type enrols through Cluster.Bank().Enroll, which routes it to
// the least-loaded partition while verdicts keep flowing.
//
// # The Component contract
//
// Every managed piece of a cluster — verdict frontends, shard-server
// replicas, remote-shard clients, and the gateway-side pools above
// them — exposes the same minimal operational surface:
//
//	Stats() json.RawMessage   // counters, in the uniform stats currency
//	Healthy() bool            // is this piece currently serving?
//	Close() error             // release it
//
// The coordinator (and the experiments' MetricsSnapshot) work against
// this contract alone, so a new component kind needs no new
// enumeration anywhere: Snapshots collects every managed component's
// counters as tagged internal/stats.Snapshot values, and Healthy is
// the conjunction of the members'.
package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/stats"
	"repro/internal/vulndb"
)

// Component is the operational contract every managed piece of a
// cluster exposes: counters in the uniform stats currency, a liveness
// signal, and release. The coordinator and the metrics snapshots work
// against this interface alone, never against concrete stats structs.
type Component interface {
	Stats() json.RawMessage
	Healthy() bool
	Close() error
}

// The serving stack satisfies the Component contract structurally.
var (
	_ Component = (*iotssp.Server)(nil)
	_ Component = (*iotssp.Replica)(nil)
	_ Component = (*iotssp.RemoteShard)(nil)
	_ Component = (*gateway.Pool)(nil)
	_ Component = (*gateway.FleetPool)(nil)
)

// PartitionSpec declares one partition of the logical classifier bank.
type PartitionSpec struct {
	// Types are the device-type names this partition owns. Partitions
	// must be disjoint, and for bit-equality with a core.TrainSharded
	// bank the partition of the sorted name universe must be the
	// round-robin deal (see RoundRobin).
	Types []string
	// Local serves the partition in-process. A remote partition is
	// hosted behind one shard-serving replica on loopback.
	Local bool
}

// Topology is the declarative serving spec a Cluster realizes.
type Topology struct {
	Partitions []PartitionSpec
}

// RoundRobin deals the sorted names round-robin across n partitions —
// exactly core.TrainSharded's assignment, so a cluster assembled over
// the result is verdict-bit-equal to the all-local TrainSharded bank.
func RoundRobin(names []string, n int) [][]string {
	if n < 1 {
		n = 1
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	parts := make([][]string, n)
	for i, name := range sorted {
		parts[i%n] = append(parts[i%n], name)
	}
	return parts
}

// ClusterConfig tunes every layer of an assembled cluster.
type ClusterConfig struct {
	// Core configures every partition bank (all partitions share it, so
	// discrimination sampling stays a pure function of (seed,
	// fingerprint) wherever a type lives).
	Core core.BankConfig
	// Server tunes every server — verdict frontends and shard replicas.
	Server iotssp.ServerConfig
	// Shard tunes the RemoteShard client of every remote partition.
	Shard iotssp.RemoteShardConfig
	// CacheSize sizes the service verdict cache (0 selects the default,
	// negative disables caching).
	CacheSize int
	// Frontends is the number of verdict-serving replicas sharing the
	// cluster's service (0 selects 1).
	Frontends int
	// DB and Endpoints parameterize the service's vulnerability lookups
	// and permitted-endpoint lists.
	DB        *vulndb.DB
	Endpoints map[string][]string
}

// partition is one realized PartitionSpec.
type partition struct {
	spec  PartitionSpec
	bank  *core.Bank
	shard core.Shard
	// replica hosts a remote partition's bank and comp is its wire
	// client; both are nil for local partitions, which have no failure
	// domain of their own.
	replica *iotssp.Replica
	comp    Component
}

// managed is one Component registered for Snapshots/Healthy, with the
// stats kind it reports under.
type managed struct {
	kind string
	comp Component
}

// Cluster is a running realization of a Topology: trained partition
// banks behind their serving machinery, one logical ShardedBank, and
// the verdict frontends.
type Cluster struct {
	cfg  ClusterConfig
	bank *core.ShardedBank
	svc  *iotssp.Service

	fronts []*iotssp.Replica
	parts  []*partition
	comps  []managed
}

// Assemble trains and starts a cluster realizing the topology over the
// training set. Every named type must appear in the training set, every
// partition must be non-empty, and the partitions must be disjoint. On
// error, everything already started is closed.
func Assemble(cfg ClusterConfig, topo Topology, training map[string][]*fingerprint.Fingerprint) (*Cluster, error) {
	if len(topo.Partitions) == 0 {
		return nil, errors.New("controlplane: topology has no partitions")
	}
	if cfg.Frontends < 1 {
		cfg.Frontends = 1
	}
	c := &Cluster{cfg: cfg}
	seen := make(map[string]int)
	trainings := make([]map[string][]*fingerprint.Fingerprint, len(topo.Partitions))
	for p, spec := range topo.Partitions {
		if len(spec.Types) == 0 {
			return nil, fmt.Errorf("controlplane: partition %d owns no types", p)
		}
		trainings[p] = make(map[string][]*fingerprint.Fingerprint, len(spec.Types))
		for _, name := range spec.Types {
			if prev, dup := seen[name]; dup {
				return nil, fmt.Errorf("controlplane: device-type %q assigned to partitions %d and %d", name, prev, p)
			}
			seen[name] = p
			prints, ok := training[name]
			if !ok || len(prints) == 0 {
				return nil, fmt.Errorf("controlplane: partition %d names %q, which has no training fingerprints", p, name)
			}
			trainings[p][name] = prints
		}
		c.parts = append(c.parts, &partition{spec: spec})
	}

	// Train every partition bank concurrently, each on its own types
	// alone — which is how TrainSharded-equivalent shards are minted
	// without training the whole bank.
	var wg sync.WaitGroup
	errs := make([]error, len(c.parts))
	for p, part := range c.parts {
		wg.Add(1)
		go func(p int, part *partition) {
			defer wg.Done()
			part.bank, errs[p] = core.Train(cfg.Core, trainings[p])
		}(p, part)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("controlplane: training partitions: %w", err)
	}

	// Host each partition: local banks serve in-process; remote ones go
	// behind a shard replica and a wire client.
	for p, part := range c.parts {
		if part.spec.Local {
			part.shard = part.bank
			continue
		}
		rep := iotssp.NewShardReplica(part.bank, cfg.Server)
		if err := rep.Start(); err != nil {
			c.Close()
			return nil, fmt.Errorf("controlplane: starting partition %d: %w", p, err)
		}
		part.replica = rep
		c.comps = append(c.comps, managed{kind: "server", comp: rep})
		rs := iotssp.NewRemoteShard(rep.Addr(), cfg.Shard)
		part.shard, part.comp = rs, rs
		c.comps = append(c.comps, managed{kind: "remote_shard", comp: rs})
	}

	shards := make([]core.Shard, len(c.parts))
	for p, part := range c.parts {
		shards[p] = part.shard
	}
	bank, err := core.NewShardedBankFrom(cfg.Core, shards)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.bank = bank
	c.svc = iotssp.NewService(bank, iotssp.ServiceConfig{
		DB:        cfg.DB,
		Endpoints: cfg.Endpoints,
		CacheSize: cfg.CacheSize,
	})
	for i := 0; i < cfg.Frontends; i++ {
		front := iotssp.NewReplica(c.svc, cfg.Server)
		if err := front.Start(); err != nil {
			c.Close()
			return nil, fmt.Errorf("controlplane: starting frontend %d: %w", i, err)
		}
		c.fronts = append(c.fronts, front)
		c.comps = append(c.comps, managed{kind: "server", comp: front})
	}
	return c, nil
}

// Bank returns the cluster's logical sharded bank.
func (c *Cluster) Bank() *core.ShardedBank { return c.bank }

// Service returns the cluster's verdict service (shared by every
// frontend).
func (c *Cluster) Service() *iotssp.Service { return c.svc }

// AuxService mints a fresh service — its own verdict cache of the
// given capacity — over the cluster's logical bank, for probes that
// need cache counters isolated from the serving path.
func (c *Cluster) AuxService(cacheSize int) *iotssp.Service {
	return iotssp.NewService(c.bank, iotssp.ServiceConfig{
		DB:        c.cfg.DB,
		Endpoints: c.cfg.Endpoints,
		CacheSize: cacheSize,
	})
}

// Frontends returns the verdict-frontend count.
func (c *Cluster) Frontends() int { return len(c.fronts) }

// Frontend returns the i-th verdict frontend (for targeted kill/revive
// drills).
func (c *Cluster) Frontend(i int) *iotssp.Replica { return c.fronts[i] }

// Addr returns the first frontend's address.
func (c *Cluster) Addr() string { return c.fronts[0].Addr() }

// Addrs lists every frontend's address in frontend order.
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.fronts))
	for i, f := range c.fronts {
		out[i] = f.Addr()
	}
	return out
}

// Partitions returns the partition count.
func (c *Cluster) Partitions() int { return len(c.parts) }

// Member returns partition p's shard replica (for targeted
// kill/revive drills on remote partitions); nil for local partitions.
func (c *Cluster) Member(p int) *iotssp.Replica { return c.parts[p].replica }

// MemberBank returns the bank behind partition p's member, for
// divergence checks. Every partition is served by exactly one bank, at
// j = 0.
func (c *Cluster) MemberBank(p, j int) *core.Bank {
	if j != 0 {
		panic(fmt.Sprintf("controlplane: partition %d has one member, not member %d", p, j))
	}
	return c.parts[p].bank
}

// Snapshots collects every managed component's counters in the uniform
// stats currency: shard-replica and frontend servers and remote-shard
// clients, in assembly order.
func (c *Cluster) Snapshots() []stats.Snapshot {
	out := make([]stats.Snapshot, len(c.comps))
	for i, m := range c.comps {
		out[i] = stats.Snapshot{Kind: m.kind, Data: m.comp.Stats()}
	}
	return out
}

// Healthy reports whether every managed component is serving.
func (c *Cluster) Healthy() bool {
	for _, m := range c.comps {
		if !m.comp.Healthy() {
			return false
		}
	}
	return true
}

// Close releases the cluster: frontends first (stop admitting), then
// the wire clients, then the shard replicas. All errors are joined.
func (c *Cluster) Close() error {
	var errs []error
	for _, f := range c.fronts {
		errs = append(errs, f.Close())
	}
	for _, part := range c.parts {
		if part.comp != nil {
			errs = append(errs, part.comp.Close())
		}
		if part.replica != nil {
			errs = append(errs, part.replica.Close())
		}
	}
	return errors.Join(errs...)
}
