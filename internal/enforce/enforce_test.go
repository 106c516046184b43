package enforce

import (
	"testing"
	"time"

	"repro/internal/flowtable"
	"repro/internal/packet"
)

var (
	localNet = packet.MustParseIP4("192.168.1.0")
	gwMAC    = packet.MustParseMAC("02:00:00:00:00:01")
	devA     = packet.MustParseMAC("02:73:74:7e:a9:c2") // will be strict
	devB     = packet.MustParseMAC("02:73:74:7e:a9:c3") // will be restricted
	devC     = packet.MustParseMAC("02:73:74:7e:a9:c4") // will be trusted
	devD     = packet.MustParseMAC("02:73:74:7e:a9:c5") // will be trusted
	ipA      = packet.MustParseIP4("192.168.1.10")
	cloud    = packet.MustParseIP4("52.28.14.9")
	other    = packet.MustParseIP4("52.1.2.3")
	t0       = time.Date(2016, 3, 1, 10, 0, 0, 0, time.UTC)
)

// engineFixture builds an engine with one device per level.
func engineFixture(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(localNet)
	e.SetInfrastructure(gwMAC)
	rules := []Rule{
		{DeviceMAC: devA, DeviceType: "UnknownThing", Level: Strict},
		{DeviceMAC: devB, DeviceType: "EdimaxCam", Level: Restricted, PermittedIPs: []packet.IP4{cloud}},
		{DeviceMAC: devC, DeviceType: "HueBridge", Level: Trusted},
		{DeviceMAC: devD, DeviceType: "Aria", Level: Trusted},
	}
	for _, r := range rules {
		if err := e.SetRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestIsolationLevelStrings(t *testing.T) {
	if Strict.String() != "strict" || Restricted.String() != "restricted" || Trusted.String() != "trusted" {
		t.Error("level names wrong")
	}
	if IsolationLevel(0).Valid() || IsolationLevel(4).Valid() {
		t.Error("invalid levels accepted")
	}
	if !Strict.Valid() || !Trusted.Valid() {
		t.Error("valid levels rejected")
	}
}

func TestSetRuleValidation(t *testing.T) {
	e := NewEngine(localNet)
	if err := e.SetRule(Rule{DeviceMAC: devA, Level: IsolationLevel(9)}); err == nil {
		t.Error("invalid level accepted")
	}
	if err := e.SetRule(Rule{DeviceMAC: devA, Level: Strict}); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 {
		t.Errorf("Len = %d, want 1", e.Len())
	}
}

func TestRuleHashStability(t *testing.T) {
	r1 := Rule{DeviceMAC: devA, Level: Restricted, PermittedIPs: []packet.IP4{cloud, other}}
	r2 := Rule{DeviceMAC: devA, Level: Restricted, PermittedIPs: []packet.IP4{other, cloud}}
	if r1.Hash() != r2.Hash() {
		t.Error("hash depends on permitted-IP order")
	}
	r3 := Rule{DeviceMAC: devA, Level: Trusted}
	if r1.Hash() == r3.Hash() {
		t.Error("hash ignores level")
	}
	r4 := Rule{DeviceMAC: devB, Level: Restricted, PermittedIPs: []packet.IP4{cloud, other}}
	if r1.Hash() == r4.Hash() {
		t.Error("hash ignores MAC")
	}
}

// TestRuleHashGolden pins Hash to the values the fmt/sort/hash-based
// implementation produced: cookies of installed flow entries and hashes
// shown to operators must not move when the function is optimised.
func TestRuleHashGolden(t *testing.T) {
	mac := packet.MustParseMAC("02:de:ad:be:ef:40")
	ips := []packet.IP4{
		packet.MustParseIP4("52.28.1.9"), packet.MustParseIP4("8.8.8.8"),
		packet.MustParseIP4("52.28.1.7"), packet.MustParseIP4("8.8.4.4"),
	}
	// More endpoints than Hash sorts on the stack.
	var many []packet.IP4
	for i := 0; i < 20; i++ {
		many = append(many, packet.IP4{10, byte(200 - 7*i), byte(i * 13), byte(i)})
	}
	tests := []struct {
		rule Rule
		want uint64
	}{
		{Rule{DeviceMAC: mac, Level: Strict}, 0x1f75aaaaa448e1c2},
		{Rule{DeviceMAC: mac, Level: Restricted, PermittedIPs: ips}, 0xd0f393ce06f5ff5b},
		{Rule{DeviceMAC: mac, Level: Trusted, DeviceType: "Aria"}, 0x1f6eaaaaa442c314},
		{Rule{DeviceMAC: mac, Level: Restricted, PermittedIPs: many}, 0xb84a008d459065ad},
		// Levels SetRule rejects still hash (installRule never gets here,
		// but Hash is exported).
		{Rule{DeviceMAC: mac, Level: 0}, 0x1f720aaaa4459c0b},
		{Rule{DeviceMAC: mac, Level: -12, PermittedIPs: ips[:1]}, 0xb0eea8c3d8959cb9},
		{Rule{DeviceMAC: mac, Level: 1234567}, 0x6f53eda52673aec3},
	}
	for _, tt := range tests {
		if got := tt.rule.Hash(); got != tt.want {
			t.Errorf("Hash(level %d, %d endpoints) = %#x, want %#x", tt.rule.Level, len(tt.rule.PermittedIPs), got, tt.want)
		}
	}
	r := tests[1].rule
	if allocs := testing.AllocsPerRun(100, func() { r.Hash() }); allocs != 0 {
		t.Errorf("Hash allocates %v times per call, want 0", allocs)
	}
}

func TestDecideLocalOverlays(t *testing.T) {
	e := engineFixture(t)
	tests := []struct {
		name     string
		src, dst packet.MAC
		allow    bool
	}{
		{"strict to strict peer", devA, devB, true}, // both untrusted overlay
		{"restricted to strict", devB, devA, true},  // both untrusted overlay
		{"strict to trusted", devA, devC, false},    // cross overlay
		{"trusted to strict", devC, devA, false},    // cross overlay
		{"trusted to trusted", devC, devD, true},    // same overlay
		{"strict to gateway", devA, gwMAC, true},    // infrastructure
		{"gateway to trusted", gwMAC, devC, true},   // infrastructure
		{"strict to broadcast", devA, packet.BroadcastMAC, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := e.DecideLocal(tt.src, tt.dst)
			if v.Allow != tt.allow {
				t.Errorf("DecideLocal = %+v, want allow=%v", v, tt.allow)
			}
		})
	}
}

func TestDecideExternal(t *testing.T) {
	e := engineFixture(t)
	tests := []struct {
		name  string
		src   packet.MAC
		dst   packet.IP4
		allow bool
	}{
		{"strict to internet", devA, cloud, false},
		{"restricted to permitted", devB, cloud, true},
		{"restricted to other", devB, other, false},
		{"trusted anywhere", devC, other, true},
		{"unknown device", packet.MustParseMAC("aa:aa:aa:aa:aa:aa"), cloud, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := e.DecideExternal(tt.src, tt.dst)
			if v.Allow != tt.allow {
				t.Errorf("DecideExternal = %+v, want allow=%v", v, tt.allow)
			}
		})
	}
}

func TestDecideInboundMirrors(t *testing.T) {
	e := engineFixture(t)
	if v := e.DecideInbound(cloud, devB); !v.Allow {
		t.Errorf("permitted endpoint inbound = %+v, want allow", v)
	}
	if v := e.DecideInbound(other, devB); v.Allow {
		t.Errorf("non-permitted inbound = %+v, want deny", v)
	}
	if v := e.DecideInbound(other, devA); v.Allow {
		t.Errorf("inbound to strict = %+v, want deny", v)
	}
	if v := e.DecideInbound(other, devC); !v.Allow {
		t.Errorf("inbound to trusted = %+v, want allow", v)
	}
}

func TestDecidePacketRouting(t *testing.T) {
	e := engineFixture(t)
	b := packet.NewBuilder(devB)
	b.SetIP(ipA)
	// Outbound to permitted cloud: allowed.
	if v := e.DecidePacket(b.TCPSynPkt(gwMAC, cloud, 49152, 443, t0)); !v.Allow {
		t.Errorf("outbound permitted = %+v", v)
	}
	// Outbound to other: denied.
	if v := e.DecidePacket(b.TCPSynPkt(gwMAC, other, 49152, 443, t0)); v.Allow {
		t.Errorf("outbound non-permitted = %+v", v)
	}
	// Local to broadcast: allowed.
	if v := e.DecidePacket(b.DHCPDiscoverPkt(1, "x", t0)); !v.Allow {
		t.Errorf("broadcast = %+v", v)
	}
	// Inbound from non-permitted remote to restricted device: denied.
	rb := packet.NewBuilder(packet.MustParseMAC("02:00:00:00:00:99"))
	rb.SetIP(other)
	inbound := rb.TCPSynPkt(devB, ipA, 443, 49152, t0)
	inbound.Eth.Dst = devB
	if v := e.DecidePacket(inbound); v.Allow {
		t.Errorf("inbound from stranger = %+v, want deny", v)
	}
}

func TestIsLocal(t *testing.T) {
	e := NewEngine(localNet)
	if !e.IsLocal(packet.MustParseIP4("192.168.1.200")) {
		t.Error("subnet address not local")
	}
	if e.IsLocal(cloud) {
		t.Error("cloud address local")
	}
	if !e.IsLocal(packet.IP4Broadcast) || !e.IsLocal(packet.IP4MDNS) || !e.IsLocal(packet.IP4Zero) {
		t.Error("broadcast/multicast/zero should be treated as local")
	}
}

func TestRemoveRule(t *testing.T) {
	e := engineFixture(t)
	if !e.RemoveRule(devA) {
		t.Error("RemoveRule(existing) = false")
	}
	if e.RemoveRule(devA) {
		t.Error("RemoveRule(absent) = true")
	}
	if _, ok := e.RuleFor(devA); ok {
		t.Error("rule still present after removal")
	}
}

func TestRulesSortedCopy(t *testing.T) {
	e := engineFixture(t)
	rules := e.Rules()
	if len(rules) != 4 {
		t.Fatalf("Rules() returned %d, want 4", len(rules))
	}
	for i := 1; i < len(rules); i++ {
		if rules[i-1].DeviceMAC.String() >= rules[i].DeviceMAC.String() {
			t.Error("Rules() not sorted by MAC")
		}
	}
	// Mutating the copy must not affect the engine.
	rules[0].Level = Trusted
	if r, _ := e.RuleFor(devA); r.Level != Strict {
		t.Error("Rules() leaked internal state")
	}
}

func TestOverlayPeers(t *testing.T) {
	e := engineFixture(t)
	// Untrusted overlay: devA (strict) and devB (restricted).
	peers := e.OverlayPeers(Strict, devA)
	if len(peers) != 1 || peers[0] != devB {
		t.Errorf("OverlayPeers(strict, devA) = %v, want [devB]", peers)
	}
	// Trusted overlay: devC, devD.
	peers = e.OverlayPeers(Trusted, devC)
	if len(peers) != 1 || peers[0] != devD {
		t.Errorf("OverlayPeers(trusted, devC) = %v, want [devD]", peers)
	}
}

func TestMemoryFootprintGrowsLinearly(t *testing.T) {
	e := NewEngine(localNet)
	base := e.MemoryFootprint()
	for i := 0; i < 100; i++ {
		mac := devA
		mac[5] = byte(i)
		mac[4] = byte(i >> 8)
		if err := e.SetRule(Rule{DeviceMAC: mac, Level: Restricted, PermittedIPs: []packet.IP4{cloud}}); err != nil {
			t.Fatal(err)
		}
	}
	after100 := e.MemoryFootprint()
	for i := 100; i < 200; i++ {
		mac := devA
		mac[5] = byte(i)
		mac[4] = byte(i >> 8)
		if err := e.SetRule(Rule{DeviceMAC: mac, Level: Restricted, PermittedIPs: []packet.IP4{cloud}}); err != nil {
			t.Fatal(err)
		}
	}
	after200 := e.MemoryFootprint()
	g1 := after100 - base
	g2 := after200 - after100
	if g1 <= 0 || g2 <= 0 {
		t.Fatalf("footprint not growing: %d, %d", g1, g2)
	}
	ratio := float64(g2) / float64(g1)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("growth not linear: first 100 rules %dB, next 100 %dB", g1, g2)
	}
}

func TestCompileFlowRulesSemantics(t *testing.T) {
	restricted := Rule{DeviceMAC: devB, Level: Restricted, PermittedIPs: []packet.IP4{cloud}}
	tbl := flowtable.New(flowtable.WithDefaultAction(flowtable.ActionController))
	for _, fr := range CompileFlowRules(restricted, []packet.MAC{devA}, gwMAC, packet.MustParseIP4("192.168.1.1")) {
		tbl.Add(fr)
	}

	b := packet.NewBuilder(devB)
	b.SetIP(ipA)
	tests := []struct {
		name string
		pkt  *packet.Packet
		want flowtable.Action
	}{
		{"to gateway", b.TCPSynPkt(gwMAC, packet.MustParseIP4("192.168.1.1"), 49152, 53, t0), flowtable.ActionForward},
		{"broadcast", b.DHCPDiscoverPkt(1, "x", t0), flowtable.ActionForward},
		{"to overlay peer", b.TCPSynPkt(devA, packet.MustParseIP4("192.168.1.10"), 49152, 80, t0), flowtable.ActionForward},
		{"to permitted cloud", b.TCPSynPkt(gwMAC, cloud, 49152, 443, t0), flowtable.ActionForward},
		{"to other remote", b.TCPSynPkt(gwMAC, other, 49152, 443, t0), flowtable.ActionDrop},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tbl.LookupPacket(tt.pkt); got != tt.want {
				t.Errorf("action = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCompileFlowRulesTrustedForwards(t *testing.T) {
	trusted := Rule{DeviceMAC: devC, Level: Trusted}
	tbl := flowtable.New(flowtable.WithDefaultAction(flowtable.ActionController))
	for _, fr := range CompileFlowRules(trusted, nil, gwMAC, packet.MustParseIP4("192.168.1.1")) {
		tbl.Add(fr)
	}
	b := packet.NewBuilder(devC)
	b.SetIP(packet.MustParseIP4("192.168.1.12"))
	if got := tbl.LookupPacket(b.TCPSynPkt(gwMAC, other, 49152, 443, t0)); got != flowtable.ActionForward {
		t.Errorf("trusted internet flow = %v, want forward", got)
	}
}

// TestCompileFlowRulesTrustedStaysInOverlay: a trusted device's compiled
// entries forward only what the engine allows; a local frame to a device
// outside its overlay is left to the controller, not forwarded.
func TestCompileFlowRulesTrustedStaysInOverlay(t *testing.T) {
	trusted := Rule{DeviceMAC: devC, Level: Trusted}
	tbl := flowtable.New(flowtable.WithDefaultAction(flowtable.ActionController))
	for _, fr := range CompileFlowRules(trusted, []packet.MAC{devD}, gwMAC, packet.MustParseIP4("192.168.1.1")) {
		tbl.Add(fr)
	}
	b := packet.NewBuilder(devC)
	b.SetIP(packet.MustParseIP4("192.168.1.12"))
	if got := tbl.LookupPacket(b.TCPSynPkt(devD, packet.MustParseIP4("192.168.1.13"), 49152, 80, t0)); got != flowtable.ActionForward {
		t.Errorf("trusted -> trusted peer = %v, want forward", got)
	}
	for _, dst := range []packet.MAC{devA, devB} {
		if got := tbl.LookupPacket(b.TCPSynPkt(dst, ipA, 49152, 80, t0)); got != flowtable.ActionController {
			t.Errorf("trusted -> untrusted %s = %v, want controller", dst, got)
		}
	}
}

func TestPairRules(t *testing.T) {
	pair := PairRules(devA, devB, 42)
	for i, ends := range [][2]packet.MAC{{devA, devB}, {devB, devA}} {
		fr := pair[i]
		if *fr.Match.EthSrc != ends[0] || *fr.Match.EthDst != ends[1] || fr.Action != flowtable.ActionForward || fr.Cookie != 42 {
			t.Errorf("pair[%d] = %+v, want forward %s -> %s cookie 42", i, fr, ends[0], ends[1])
		}
		if !IsPairWith(&fr, devA) || !IsPairWith(&fr, devB) || IsPairWith(&fr, devC) {
			t.Errorf("pair[%d]: IsPairWith wrong for its ends or a bystander", i)
		}
	}
	// Only pair entries qualify, whatever else names the device.
	for _, fr := range CompileFlowRules(Rule{DeviceMAC: devA, Level: Strict}, nil, gwMAC, packet.MustParseIP4("192.168.1.1")) {
		if IsPairWith(&fr, devA) || IsPairWith(&fr, gwMAC) {
			t.Errorf("non-pair entry %+v reported as a pair", fr)
		}
	}
}

func TestCompileFlowRulesCookie(t *testing.T) {
	r := Rule{DeviceMAC: devB, Level: Restricted, PermittedIPs: []packet.IP4{cloud}}
	rules := CompileFlowRules(r, []packet.MAC{devA}, gwMAC, packet.MustParseIP4("192.168.1.1"))
	want := r.Hash()
	for i, fr := range rules {
		if fr.Cookie != want {
			t.Errorf("rule %d cookie = %d, want %d", i, fr.Cookie, want)
		}
	}
	// Removal by cookie clears them all.
	tbl := flowtable.New()
	for _, fr := range rules {
		tbl.Add(fr)
	}
	if n := tbl.RemoveByCookie(want); n != len(rules) {
		t.Errorf("RemoveByCookie removed %d, want %d", n, len(rules))
	}
}
