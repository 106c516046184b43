package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"os"
	"testing"
	"time"
)

// streamDigest fingerprints the first n requests of the open-loop
// schedule at the given rate: intended offset, MAC and fingerprint hash
// of each. Equal seeds give equal digests.
func (in *inputs) streamDigest(rate, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	interval := time.Second / time.Duration(rate)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(time.Duration(i)*interval))
		h.Write(buf[:])
		h.Write([]byte(requestMAC(in.seed, uint64(i))))
		binary.LittleEndian.PutUint64(buf[:], in.stream[in.index(uint64(i))].Hash())
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Equal seeds must give the identical request stream (intended send
// offsets, MACs, fingerprints) and inputs; different seeds must not.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range []string{"fleet_warm", "fleet_miss"} {
		sp := specByName(name)
		build := func(seed int64) *inputs {
			in, err := buildInputs(sp, seed)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		a, b, c := build(1), build(1), build(2)
		const n = 5000
		if da, db := a.streamDigest(sp.openRate, n), b.streamDigest(sp.openRate, n); da != db {
			t.Errorf("%s: seed 1 gave stream digests %x and %x", name, da, db)
		}
		if da, dc := a.streamDigest(sp.openRate, n), c.streamDigest(sp.openRate, n); da == dc {
			t.Errorf("%s: seeds 1 and 2 gave the same stream digest %x", name, da)
		}
		if string(a.pcap) != string(b.pcap) {
			t.Errorf("%s: seed 1 gave two different capture files", name)
		}
		if len(a.devices) != sp.devices || a.pcapDevices != 27*sp.pcapPerType {
			t.Errorf("%s: %d devices and %d captures, want %d and %d", name, len(a.devices), a.pcapDevices, sp.devices, 27*sp.pcapPerType)
		}
		if a.devices[0].mac == c.devices[0].mac {
			t.Errorf("%s: seeds 1 and 2 gave device 0 the same MAC", name)
		}
		if !sp.miss {
			continue
		}
		seen := make(map[uint64]bool)
		for _, fp := range a.stream {
			seen[fp.Hash()] = true
		}
		if len(a.stream) != missPool || len(seen) != missPool {
			t.Errorf("%s: %d fingerprints with %d distinct hashes, want %d of each", name, len(a.stream), len(seen), missPool)
		}
	}
}

// BENCHMARK.json repeats the workload and metric catalogue for the
// driver; the code is the source and this keeps the copy equal.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q (%q), the code says %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(got), kind, len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s metric %d is %+v, the code says %+v", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != w.bound) {
				t.Errorf("%s metric %s: bound %v, the code says %v (bounded: %v)", kind, m.Name, m.Bound, w.bound, bounded)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd, true)
	check("per-layer", doc.PerLayer, perLayer, false)
}
