package experiments

import (
	"encoding/json"

	"repro/internal/iotssp"
	"repro/internal/stats"
)

// MetricsSnapshot is the single JSON stats blob a serving experiment
// reports: every managed component's counters — servers, caches,
// gateway pools, remote shards, shard groups — as uniformly tagged
// snapshots in assembly order. Experiments append whatever Components
// they ran (via controlplane.Cluster.Snapshots and each client pool's
// Snapshot) instead of hand-assembling per-kind slices, so a new
// component kind needs no new field here. One coherent snapshot instead
// of counters scattered through the prose output, so runs can be diffed
// and scraped.
type MetricsSnapshot struct {
	// Experiment names the producing experiment ("service", "fleet").
	Experiment string `json:"experiment"`
	// Components holds one tagged counter snapshot per managed
	// component, in assembly order.
	Components []stats.Snapshot `json:"components"`
	// ShardWireBytes is the shard-plane steady-state wire traffic the
	// run recorded — both directions of every remote-shard client
	// transport, standalone and inside shard groups, minus the
	// handshake, push and state-transfer bytes broken out into
	// ShardControlBytes — and BytesPerVerdict that steady-state traffic
	// divided by the verdicts served. All are filled by
	// ComputeBytesPerVerdict; they are measured off the lineconn byte
	// counters, so codec changes (delta-packed batches, dictionary
	// references) move a reported number rather than an estimate.
	ShardWireBytes    uint64  `json:"shard_wire_bytes,omitempty"`
	ShardControlBytes uint64  `json:"shard_control_bytes,omitempty"`
	BytesPerVerdict   float64 `json:"bytes_per_verdict,omitempty"`
	// DictHitRate is the fingerprint dictionaries' hit rate across
	// the same transports (0 when no dictionary traffic ran).
	DictHitRate float64 `json:"dict_hit_rate,omitempty"`
	// ClassifyNsPerFP is the fused stage-one cost the local shards
	// measured during the timed run: total ml.ForestSet pass nanoseconds
	// divided by fingerprints classified (0 when the run classified
	// nothing locally, e.g. every verdict came from the cache).
	ClassifyNsPerFP float64 `json:"classify_ns_per_fp,omitempty"`
	// ClassifyAllocsPerVerdict is the measured steady-state heap
	// allocation rate of the fused ClassifyVotes kernel, in allocations
	// per fingerprint — 0 on the allocation-free hot path.
	ClassifyAllocsPerVerdict float64 `json:"classify_allocs_per_verdict,omitempty"`
}

// ComputeBytesPerVerdict folds the shard-plane transports' byte
// counters out of the captured components into a per-verdict wire
// cost, records it on the snapshot, and returns it. Handshake bytes,
// server-pushed delta-stream bytes and state-transfer payloads
// (enroll/snapshot/restore/meta) are carved out into ShardControlBytes
// first, so the per-verdict number prices exactly the steady-state
// classify traffic a fleet pays per request. Zero verdicts (or a run
// with no shard-plane components) reports zero.
func (m *MetricsSnapshot) ComputeBytesPerVerdict(verdicts int) float64 {
	var steady, control, hits, misses uint64
	fold := func(rs iotssp.RemoteShardStats) {
		all := rs.Transport.BytesWritten + rs.Transport.BytesRead
		carve := rs.Transport.HandshakeBytesWritten + rs.Transport.HandshakeBytesRead +
			rs.Transport.PushBytesRead + rs.StateBytes
		steady += all - carve
		control += carve
		hits += rs.Transport.DictHits
		misses += rs.Transport.DictMisses
	}
	for _, c := range m.Components {
		switch c.Kind {
		case "remote_shard":
			var rs iotssp.RemoteShardStats
			if json.Unmarshal(c.Data, &rs) == nil {
				fold(rs)
			}
		case "shard_group":
			var g iotssp.ShardGroupStats
			if json.Unmarshal(c.Data, &g) == nil {
				for _, mem := range g.Members {
					fold(mem.Shard)
				}
			}
		}
	}
	m.ShardWireBytes = steady
	m.ShardControlBytes = control
	if hits+misses > 0 {
		m.DictHitRate = float64(hits) / float64(hits+misses)
	}
	if verdicts > 0 {
		m.BytesPerVerdict = float64(steady) / float64(verdicts)
	}
	return m.BytesPerVerdict
}

// JSON renders the snapshot as a single indented JSON object.
func (m *MetricsSnapshot) JSON() string {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "{}" // the snapshot is plain data; this cannot happen
	}
	return string(b)
}
