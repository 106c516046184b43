package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/devices"
	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/sniff"
)

// device is one onboarded device instance: a catalog type under its own
// MAC and lease.
type device struct {
	mac     packet.MAC
	typ     string
	setup   []*packet.Packet
	standby []*packet.Packet
}

// inputs is everything a workload feeds the system, derived from the
// seed alone.
type inputs struct {
	seed int64
	env  devices.Env

	train  map[string][]*fingerprint.Fingerprint
	probes []*fingerprint.Fingerprint // the 54 held-out catalog fingerprints
	truth  []string                   // ground-truth type of each probe

	// stream is the set of fingerprints requests carry: the probes on
	// the warm workloads, missPool distinct jittered rebuilds on the
	// miss workloads. Request i carries stream[draw[i % len(draw)]]
	// under a fresh MAC.
	stream []*fingerprint.Fingerprint
	draw   []uint32

	synthetic []*fingerprint.Fingerprint // training prints of churnType

	devices []device
	standby []*packet.Packet // every device's standby traffic, by time

	pcap        []byte
	pcapPackets int
	pcapDevices int
}

// buildInputs generates the dataset, request stream, device instances
// and capture file for one workload.
func buildInputs(sp *spec, seed int64) (*inputs, error) {
	in := &inputs{seed: seed, env: devices.DefaultEnv()}
	ds, err := devices.GenerateDataset(in.env, seed, trainRuns+probeRuns)
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	in.train = make(map[string][]*fingerprint.Fingerprint, len(ds))
	for _, name := range devices.Names() {
		prints := ds[name]
		in.train[name] = prints[:trainRuns]
		for _, fp := range prints[trainRuns:] {
			in.probes = append(in.probes, fp)
			in.truth = append(in.truth, name)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	if sp.miss {
		in.stream = jitteredStream(in.probes, missPool, rng)
		// Cyclic order over more distinct fingerprints than the cache
		// holds: an LRU never sees a repeat before evicting it.
		in.draw = make([]uint32, len(in.stream))
		for i := range in.draw {
			in.draw[i] = uint32(i)
		}
	} else {
		in.stream = in.probes
		in.draw = make([]uint32, 1<<16)
		for i := range in.draw {
			in.draw[i] = uint32(rng.Intn(len(in.stream)))
		}
	}
	in.synthetic = syntheticPrints(rng)

	if err := in.buildDevices(sp.devices); err != nil {
		return nil, err
	}
	if err := in.buildPcap(sp.pcapPerType); err != nil {
		return nil, err
	}
	return in, nil
}

// jitteredStream rebuilds catalog probes with a seeded +0..4 jitter on
// the Size feature until n distinct fingerprints exist.
func jitteredStream(probes []*fingerprint.Fingerprint, n int, rng *rand.Rand) []*fingerprint.Fingerprint {
	out := make([]*fingerprint.Fingerprint, 0, n)
	seen := make(map[uint64]bool, n)
	for i := 0; len(out) < n; i++ {
		vs := probes[i%len(probes)].Vectors()
		for k := range vs {
			vs[k][features.Size] += int32(rng.Intn(5))
		}
		fp := fingerprint.FromVectors(vs)
		if h := fp.Hash(); !seen[h] {
			seen[h] = true
			out = append(out, fp)
		}
	}
	return out
}

// syntheticPrints builds the training prints of the churn writer's
// device-type. Every feature of every packet sits far above anything a
// device emits (binary features at 5, sizes in the thousands), so
// whichever feature a tree of its classifier splits on, the threshold
// falls between the real range and these values and a real fingerprint
// lands on the rejecting side: no forest trained on these prints, at
// any enrolment ordinal, accepts a read fingerprint, and the oracle
// holds while the writer runs (checked once more at set-up).
func syntheticPrints(rng *rand.Rand) []*fingerprint.Fingerprint {
	prints := make([]*fingerprint.Fingerprint, trainRuns)
	for i := range prints {
		vs := make([]features.Vector, fingerprint.FixedPackets+2)
		for k := range vs {
			for f := range vs[k] {
				vs[k][f] = 5
			}
			vs[k][features.Size] = int32(5000 + 40*k + rng.Intn(8))
			vs[k][features.DstIPCounter] = int32(500 + k)
			vs[k][features.SrcPortClass] = 9
			vs[k][features.DstPortClass] = 9
		}
		prints[i] = fingerprint.FromVectors(vs)
	}
	return prints
}

func (in *inputs) buildDevices(n int) error {
	names := devices.Names()
	if n > 230 {
		return fmt.Errorf("%d devices do not fit the /24 lease range", n)
	}
	for i := 0; i < n; i++ {
		profile, err := devices.Lookup(names[i%len(names)])
		if err != nil {
			return err
		}
		inst := *profile
		inst.MAC = packet.MAC{0x02, 0xd0, byte(in.seed), 0, byte(i >> 8), byte(i)}
		inst.IP = packet.IP4{192, 168, 1, byte(20 + i)}
		run := i / len(names)
		d := device{
			mac:     inst.MAC,
			typ:     inst.Name,
			setup:   inst.Generate(in.env, in.seed+1000, run).Packets,
			standby: inst.GenerateStandby(in.env, in.seed+2000, run, standbyBeats).Packets,
		}
		in.devices = append(in.devices, d)
		in.standby = append(in.standby, d.standby...)
	}
	sort.SliceStable(in.standby, func(i, j int) bool {
		return in.standby[i].Timestamp.Before(in.standby[j].Timestamp)
	})
	return nil
}

// buildPcap writes perType setup captures of every type, each under its
// own MAC, merged by timestamp into one in-memory capture file.
func (in *inputs) buildPcap(perType int) error {
	type frame struct {
		ts   time.Time
		data []byte
	}
	var frames []frame
	for ti, name := range devices.Names() {
		traces, err := devices.GenerateRuns(name, in.env, in.seed+100, perType)
		if err != nil {
			return err
		}
		for run, tr := range traces {
			// The Ethernet header is covered by no checksum, so the
			// source MAC can be rewritten on the wire bytes.
			mac := packet.MAC{0x02, 0x9d, byte(ti), byte(run), byte(in.seed), 0x01}
			for _, p := range tr.Packets {
				wire, err := p.Serialize()
				if err != nil {
					return fmt.Errorf("serializing %s packet: %w", name, err)
				}
				copy(wire[6:12], mac[:])
				frames = append(frames, frame{p.Timestamp, wire})
			}
		}
		in.pcapDevices += len(traces)
	}
	sort.SliceStable(frames, func(i, j int) bool { return frames[i].ts.Before(frames[j].ts) })
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.WithNanosecondResolution())
	if err != nil {
		return err
	}
	for _, f := range frames {
		if err := w.WritePacket(f.ts, f.data); err != nil {
			return err
		}
	}
	in.pcap = buf.Bytes()
	in.pcapPackets = len(frames)
	return nil
}

// index is the stream fingerprint request i of a run carries.
func (in *inputs) index(i uint64) int {
	return int(in.draw[i%uint64(len(in.draw))])
}

const hexDigits = "0123456789abcdef"

// requestMAC formats the locally administered MAC of request i without
// fmt: the generator shares two cores with the system it loads.
func requestMAC(seed int64, i uint64) string {
	b := [6]byte{0x02, byte(seed), byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
	var s [17]byte
	for k, v := range b {
		s[3*k] = hexDigits[v>>4]
		s[3*k+1] = hexDigits[v&0xf]
		if k < 5 {
			s[3*k+2] = ':'
		}
	}
	return string(s[:])
}

// captureOf replays one device's setup packets through a standalone
// monitor and returns the fingerprint the gateway will extract.
func captureOf(d *device) (*fingerprint.Fingerprint, error) {
	var fp *fingerprint.Fingerprint
	m := sniff.NewMonitor(sniff.GatewayConfig())
	m.OnSetupComplete = func(c sniff.Capture) { fp = c.Fingerprint() }
	for _, p := range d.setup {
		m.Observe(p)
	}
	m.Tick(d.setup[len(d.setup)-1].Timestamp.Add(time.Minute))
	if fp == nil {
		return nil, fmt.Errorf("device %s (%s): setup capture did not complete", d.mac, d.typ)
	}
	return fp, nil
}
