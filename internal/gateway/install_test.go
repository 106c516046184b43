package gateway

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/enforce"
	"repro/internal/flowtable"
	"repro/internal/packet"
)

// recompile is the whole-table compile installRule used to run on every
// verdict: every rule the engine holds, compiled against its current
// overlay peers. It is the oracle the incrementally maintained table
// must equal after each install.
func recompile(g *Gateway) []flowtable.Rule {
	var out []flowtable.Rule
	for _, rule := range g.engine.Rules() {
		peers := g.engine.OverlayPeers(rule.Level, rule.DeviceMAC)
		out = append(out, enforce.CompileFlowRules(rule, peers, g.cfg.MAC, g.cfg.IP)...)
	}
	return out
}

// entry is a flow rule with its match pointers resolved, comparable so
// tables can be compared as multisets.
type entry struct {
	priority       int
	set            [8]bool // which match fields are present, in declaration order
	ethSrc, ethDst packet.MAC
	group          bool
	etherType      packet.EtherType
	ipSrc, ipDst   packet.IP4
	ipProto        packet.IPProto
	l4Dst          uint16
	action         flowtable.Action
	cookie         uint64
}

func entryOf(fr flowtable.Rule) entry {
	e := entry{priority: fr.Priority, action: fr.Action, cookie: fr.Cookie}
	m := fr.Match
	if m.EthSrc != nil {
		e.set[0], e.ethSrc = true, *m.EthSrc
	}
	if m.EthDst != nil {
		e.set[1], e.ethDst = true, *m.EthDst
	}
	if m.EthDstGroup != nil {
		e.set[2], e.group = true, *m.EthDstGroup
	}
	if m.EtherType != nil {
		e.set[3], e.etherType = true, *m.EtherType
	}
	if m.IPSrc != nil {
		e.set[4], e.ipSrc = true, *m.IPSrc
	}
	if m.IPDst != nil {
		e.set[5], e.ipDst = true, *m.IPDst
	}
	if m.IPProto != nil {
		e.set[6], e.ipProto = true, *m.IPProto
	}
	if m.L4Dst != nil {
		e.set[7], e.l4Dst = true, *m.L4Dst
	}
	return e
}

// checkTableEqualsRecompile fails the test unless the gateway's table is
// priority-ordered and holds exactly the oracle's entries.
func checkTableEqualsRecompile(t *testing.T, g *Gateway, step int) {
	t.Helper()
	got := g.table.Rules()
	for i := 1; i < len(got); i++ {
		if got[i].Priority > got[i-1].Priority {
			t.Fatalf("step %d: priority rises from %d to %d at table index %d", step, got[i-1].Priority, got[i].Priority, i)
		}
	}
	want := recompile(g)
	if len(got) != len(want) {
		t.Fatalf("step %d: table holds %d entries, whole-table recompile %d", step, len(got), len(want))
	}
	surplus := make(map[entry]int, len(want))
	for _, fr := range got {
		surplus[entryOf(fr)]++
	}
	for _, fr := range want {
		surplus[entryOf(fr)]--
	}
	for e, n := range surplus {
		if n != 0 {
			t.Fatalf("step %d: table holds %+d of %+v relative to the whole-table recompile", step, n, e)
		}
	}
}

// fleet is a pool of device MACs with their local IPs and the cloud
// endpoints Restricted rules draw from.
type fleet struct {
	macs   []packet.MAC
	ips    []packet.IP4
	clouds []packet.IP4
}

func newFleet(n int) fleet {
	f := fleet{}
	for i := 0; i < n; i++ {
		f.macs = append(f.macs, packet.MAC{0x02, 0xf1, 0, 0, byte(i >> 8), byte(i)})
		f.ips = append(f.ips, packet.IP4{192, 168, 1, byte(10 + i)})
	}
	for i := 0; i < 5; i++ {
		f.clouds = append(f.clouds, packet.IP4{52, 28, byte(i), 7})
	}
	return f
}

// installKind names what a generated install exercises.
type installKind int

const (
	firstInstall installKind = iota
	crossOverlay
	sameOverlay // level or endpoint change that keeps the overlay
	identical
	rejected
	numInstallKinds
)

// randomInstall draws the next rule of a seeded install sequence and
// says what it exercises against the engine's current state.
func (f fleet) randomInstall(rng *rand.Rand, e *enforce.Engine) (enforce.Rule, installKind) {
	mac := f.macs[rng.Intn(len(f.macs))]
	old, had := e.RuleFor(mac)
	switch p := rng.Intn(20); {
	case p == 0:
		return enforce.Rule{DeviceMAC: mac, Level: enforce.IsolationLevel(4 * rng.Intn(2))}, rejected
	case p <= 2 && had:
		return old, identical
	}
	r := enforce.Rule{DeviceMAC: mac, DeviceType: "T", Level: enforce.IsolationLevel(1 + rng.Intn(3))}
	if r.Level == enforce.Restricted {
		for _, i := range rng.Perm(len(f.clouds))[:rng.Intn(4)] {
			r.PermittedIPs = append(r.PermittedIPs, f.clouds[i])
		}
	}
	switch {
	case !had:
		return r, firstInstall
	case (old.Level == enforce.Trusted) != (r.Level == enforce.Trusted):
		return r, crossOverlay
	case old.Hash() == r.Hash():
		return r, identical
	}
	return r, sameOverlay
}

// TestInstallRuleEqualsRecompile drives installRule with a seeded random
// sequence — first installs, level flips across and within overlays,
// Restricted endpoint changes, identical re-installs and rejected rules —
// and after every step holds the table to the whole-table recompile.
func TestInstallRuleEqualsRecompile(t *testing.T) {
	const devices, installs = 48, 700
	f := newFleet(devices)
	rng := rand.New(rand.NewSource(17))
	g := New(gatewayConfig(true), nil)
	var seen [numInstallKinds]int
	for step := 0; step < installs; step++ {
		r, kind := f.randomInstall(rng, g.engine)
		seen[kind]++
		if kind == rejected {
			rules, table := g.engine.Rules(), g.table.Rules()
			g.installRule(r)
			if !reflect.DeepEqual(rules, g.engine.Rules()) || !reflect.DeepEqual(table, g.table.Rules()) {
				t.Fatalf("step %d: rejected rule (level %d) changed the engine or the table", step, r.Level)
			}
			continue
		}
		g.installRule(r)
		checkTableEqualsRecompile(t, g, step)
	}
	for kind, n := range seen {
		if n == 0 {
			t.Errorf("the sequence never exercised install kind %d", kind)
		}
	}
	if g.engine.Len() != devices {
		t.Errorf("%d of %d devices hold a rule at the end", g.engine.Len(), devices)
	}
}

// TestInstallRuleTouchesLinearEntries onboards 300 devices (quarantine,
// then verdict) and bounds the flow entries any one install adds plus
// removes by the number of rule-holding devices: the device's own
// entries and one pair per peer on each side, never the whole table.
func TestInstallRuleTouchesLinearEntries(t *testing.T) {
	const devices = 300
	f := newFleet(devices)
	g := New(gatewayConfig(true), nil)
	install := func(r enforce.Rule) {
		t.Helper()
		before := g.table.Stats()
		g.installRule(r)
		after := g.table.Stats()
		touched := (after.RulesAdded - before.RulesAdded) + (after.RulesRemoved - before.RulesRemoved)
		if n := uint64(g.engine.Len()); touched > 8*n+16 {
			t.Fatalf("install for %s (level %s) touched %d entries with %d rule-holding devices, want at most %d",
				r.DeviceMAC, r.Level, touched, n, 8*n+16)
		}
	}
	for i, mac := range f.macs {
		install(enforce.Rule{DeviceMAC: mac, Level: enforce.Strict})
		verdict := enforce.Rule{DeviceMAC: mac, DeviceType: "T", Level: enforce.IsolationLevel(1 + i%3)}
		if verdict.Level == enforce.Restricted {
			verdict.PermittedIPs = f.clouds[:2]
		}
		install(verdict)
	}
	checkTableEqualsRecompile(t, g, 2*devices)
}

// TestTableNeverMorePermissiveThanEngine: after every step of a seeded
// install sequence, wherever the flow table answers forward or drop on
// its own (rather than punting to the controller) for a frame from a
// rule-holding device — to any other device of the fleet, rule-holding
// or not yet identified, or to the WAN — it never forwards what
// Engine.DecidePacket denies.
func TestTableNeverMorePermissiveThanEngine(t *testing.T) {
	const devices, installs = 24, 200
	f := newFleet(devices)
	rng := rand.New(rand.NewSource(29))
	g := New(gatewayConfig(true), nil)
	wan := append([]packet.IP4{packet.MustParseIP4("52.99.99.99")}, f.clouds...)

	var probes, decided, failClosed int
	probe := func(step int, p *packet.Packet) {
		t.Helper()
		probes++
		action := g.table.Lookup(flowtable.KeyOf(p))
		if action == flowtable.ActionController {
			return
		}
		decided++
		verdict := g.engine.DecidePacket(p)
		switch {
		case action == flowtable.ActionForward && !verdict.Allow:
			src, _ := g.engine.RuleFor(p.Eth.Src)
			t.Fatalf("step %d: table forwards %s (%s) -> %s / %s, engine denies: %s",
				step, p.Eth.Src, src.Level, p.Eth.Dst, p.IPv4.Dst, verdict.Reason)
		case action == flowtable.ActionDrop && verdict.Allow:
			failClosed++
		}
	}
	for step := 0; step < installs; step++ {
		r, _ := f.randomInstall(rng, g.engine)
		g.installRule(r)
		for i, src := range f.macs {
			if _, ok := g.engine.RuleFor(src); !ok {
				continue
			}
			b := packet.NewBuilder(src)
			b.SetIP(f.ips[i])
			for j, dst := range f.macs {
				if i != j {
					probe(step, b.TCPSynPkt(dst, f.ips[j], 49152, 80, t0))
				}
			}
			for _, ip := range wan {
				probe(step, b.TCPSynPkt(gwMAC, ip, 49152, 443, t0))
			}
		}
	}
	if decided == 0 {
		t.Fatal("the flow table decided no probe on its own")
	}
	// Known and left as is: a strict or restricted device's final drop
	// also covers frames to a device that holds no rule yet, which the
	// engine places in the untrusted overlay and would allow.
	t.Logf("%d probes, %d decided by the table, %d of those fail-closed (table drops, engine allows)", probes, decided, failClosed)
}
