// Package stats defines the uniform snapshot currency every serving
// component trades in. Each component's typed counter block (a
// ServerStats, PoolStats, RemoteShardStats, …) converts itself into one
// Snapshot — a kind tag plus the counters marshalled as raw JSON — so
// aggregators (the control plane's component registry, the experiments'
// MetricsSnapshot) carry a flat []Snapshot instead of enumerating one
// field per concrete stats struct.
package stats

import "encoding/json"

// Snapshot is one component's counters at a point in time: a kind tag
// naming the counter schema ("server", "cache", "gateway_pool",
// "fleet_pool", "remote_shard", "shard_group", …) and the counters
// themselves as raw JSON. Snapshots marshal as-is into metrics
// documents.
type Snapshot struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// New builds a Snapshot by marshalling v under the given kind tag. A
// marshal failure (impossible for the plain counter structs this
// package serves) degrades to an error document rather than panicking
// in a metrics path.
func New(kind string, v any) Snapshot {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return Snapshot{Kind: kind, Data: b}
}
