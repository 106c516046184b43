package flowtable

import (
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
)

var (
	devMAC = packet.MustParseMAC("13:73:74:7e:a9:c2")
	gwMAC  = packet.MustParseMAC("02:00:00:00:00:01")
	devIP  = packet.MustParseIP4("192.168.1.57")
	cloud  = packet.MustParseIP4("52.28.14.9")
	t0     = time.Date(2016, 3, 1, 10, 0, 0, 0, time.UTC)
)

func tcpKey(src, dst packet.MAC, sip, dip packet.IP4, dport uint16) Key {
	return Key{
		EthSrc: src, EthDst: dst, EtherType: packet.EtherTypeIPv4,
		IPSrc: sip, IPDst: dip, IPProto: packet.IPProtoTCP,
		L4Src: 49152, L4Dst: dport,
	}
}

func TestKeyOf(t *testing.T) {
	b := packet.NewBuilder(devMAC)
	b.SetIP(devIP)
	p := b.TCPSynPkt(gwMAC, cloud, 49152, 443, t0)
	k := KeyOf(p)
	if k.EthSrc != devMAC || k.EthDst != gwMAC {
		t.Errorf("MACs wrong: %+v", k)
	}
	if k.IPSrc != devIP || k.IPDst != cloud {
		t.Errorf("IPs wrong: %+v", k)
	}
	if k.IPProto != packet.IPProtoTCP || k.L4Src != 49152 || k.L4Dst != 443 {
		t.Errorf("transport wrong: %+v", k)
	}

	arp := b.ARPAnnounce(t0)
	ka := KeyOf(arp)
	if ka.EtherType != packet.EtherTypeARP || ka.IPProto != 0 {
		t.Errorf("ARP key wrong: %+v", ka)
	}
}

func TestMatchCovers(t *testing.T) {
	k := tcpKey(devMAC, gwMAC, devIP, cloud, 443)
	tests := []struct {
		name string
		m    Match
		want bool
	}{
		{"empty matches all", Match{}, true},
		{"src mac", Match{EthSrc: MACPtr(devMAC)}, true},
		{"wrong src mac", Match{EthSrc: MACPtr(gwMAC)}, false},
		{"dst ip", Match{IPDst: IPPtr(cloud)}, true},
		{"wrong dst ip", Match{IPDst: IPPtr(devIP)}, false},
		{"proto+port", Match{IPProto: protoPtr(packet.IPProtoTCP), L4Dst: portPtr(443)}, true},
		{"wrong port", Match{L4Dst: portPtr(80)}, false},
		{"group required", Match{EthDstGroup: BoolPtr(true)}, false},
		{"group excluded", Match{EthDstGroup: BoolPtr(false)}, true},
		{"combined", Match{EthSrc: MACPtr(devMAC), IPDst: IPPtr(cloud), L4Dst: portPtr(443)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.m.Covers(k); got != tt.want {
				t.Errorf("Covers = %v, want %v", got, tt.want)
			}
		})
	}

	// Broadcast key against group matches.
	kb := tcpKey(devMAC, packet.BroadcastMAC, devIP, packet.IP4Broadcast, 67)
	if !(&Match{EthDstGroup: BoolPtr(true)}).Covers(kb) {
		t.Error("broadcast key not covered by group match")
	}
}

func TestPriorityOrdering(t *testing.T) {
	tbl := New(WithDefaultAction(ActionDrop))
	tbl.Add(Rule{Priority: 100, Match: Match{EthSrc: MACPtr(devMAC)}, Action: ActionDrop, Cookie: 1})
	tbl.Add(Rule{Priority: 200, Match: Match{EthSrc: MACPtr(devMAC), IPDst: IPPtr(cloud)}, Action: ActionForward, Cookie: 2})

	if got := tbl.Lookup(tcpKey(devMAC, gwMAC, devIP, cloud, 443)); got != ActionForward {
		t.Errorf("permitted flow = %v, want forward", got)
	}
	other := packet.MustParseIP4("52.1.1.1")
	if got := tbl.Lookup(tcpKey(devMAC, gwMAC, devIP, other, 443)); got != ActionDrop {
		t.Errorf("non-permitted flow = %v, want drop", got)
	}
}

func TestEqualPriorityStable(t *testing.T) {
	tbl := New()
	tbl.Add(Rule{Priority: 100, Match: Match{}, Action: ActionForward, Cookie: 1})
	tbl.Add(Rule{Priority: 100, Match: Match{}, Action: ActionDrop, Cookie: 2})
	if got := tbl.Lookup(Key{}); got != ActionForward {
		t.Errorf("equal-priority tie = %v, want the earlier rule (forward)", got)
	}
}

func TestDefaultAction(t *testing.T) {
	tbl := New()
	if got := tbl.Lookup(Key{}); got != ActionController {
		t.Errorf("default = %v, want controller", got)
	}
	tbl2 := New(WithDefaultAction(ActionForward))
	if got := tbl2.Lookup(Key{}); got != ActionForward {
		t.Errorf("default = %v, want forward", got)
	}
}

func TestCacheHitPath(t *testing.T) {
	tbl := New(WithDefaultAction(ActionDrop))
	tbl.Add(Rule{Priority: 10, Match: Match{EthSrc: MACPtr(devMAC)}, Action: ActionForward})
	k := tcpKey(devMAC, gwMAC, devIP, cloud, 443)

	for i := 0; i < 5; i++ {
		if got := tbl.Lookup(k); got != ActionForward {
			t.Fatalf("lookup %d = %v", i, got)
		}
	}
	st := tbl.Stats()
	if st.Lookups != 5 {
		t.Errorf("Lookups = %d, want 5", st.Lookups)
	}
	if st.CacheHits != 4 {
		t.Errorf("CacheHits = %d, want 4 (first lookup misses)", st.CacheHits)
	}
	if st.Misses != 1 {
		t.Errorf("Misses = %d, want 1", st.Misses)
	}
	if tbl.CacheLen() != 1 {
		t.Errorf("CacheLen = %d, want 1", tbl.CacheLen())
	}
}

func TestAddInvalidatesCache(t *testing.T) {
	tbl := New(WithDefaultAction(ActionDrop))
	k := tcpKey(devMAC, gwMAC, devIP, cloud, 443)
	if got := tbl.Lookup(k); got != ActionDrop {
		t.Fatalf("pre-rule lookup = %v", got)
	}
	tbl.Add(Rule{Priority: 10, Match: Match{EthSrc: MACPtr(devMAC)}, Action: ActionForward})
	if got := tbl.Lookup(k); got != ActionForward {
		t.Errorf("post-rule lookup = %v, want forward (cache must revalidate)", got)
	}
}

func TestRemoveByCookie(t *testing.T) {
	tbl := New(WithDefaultAction(ActionDrop))
	tbl.Add(Rule{Priority: 10, Match: Match{EthSrc: MACPtr(devMAC)}, Action: ActionForward, Cookie: 7})
	tbl.Add(Rule{Priority: 20, Match: Match{IPDst: IPPtr(cloud)}, Action: ActionForward, Cookie: 7})
	tbl.Add(Rule{Priority: 30, Match: Match{EthDst: MACPtr(gwMAC)}, Action: ActionForward, Cookie: 8})
	if n := tbl.RemoveByCookie(7); n != 2 {
		t.Errorf("RemoveByCookie removed %d, want 2", n)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
	k := tcpKey(devMAC, devMAC, devIP, cloud, 443)
	if got := tbl.Lookup(k); got != ActionDrop {
		t.Errorf("after removal lookup = %v, want drop", got)
	}
	if n := tbl.RemoveByCookie(99); n != 0 {
		t.Errorf("RemoveByCookie(absent) = %d, want 0", n)
	}
}

// cookies lists the table's rule cookies in table order.
func cookies(tbl *Table) []uint64 {
	var out []uint64
	for _, r := range tbl.Rules() {
		out = append(out, r.Cookie)
	}
	return out
}

func TestUpdateOrderAndCounters(t *testing.T) {
	rule := func(priority int, cookie uint64) Rule {
		return Rule{Priority: priority, Match: Match{EthSrc: MACPtr(devMAC)}, Action: ActionForward, Cookie: cookie}
	}
	tbl := New()
	for _, r := range []Rule{rule(30, 1), rule(20, 2), rule(20, 3), rule(10, 4)} {
		tbl.Add(r)
	}

	// Unsorted batch: installed rules stay ahead at equal priority, added
	// ones keep their batch order, and the caller's slice is not reordered.
	add := []Rule{rule(20, 5), rule(40, 6), rule(20, 7), rule(5, 8), rule(30, 9)}
	removed := tbl.Update(func(r *Rule) bool { return r.Cookie == 2 }, add)
	if removed != 1 {
		t.Errorf("Update removed %d, want 1", removed)
	}
	want := []uint64{6, 1, 9, 3, 5, 7, 4, 8}
	if got := cookies(tbl); !slices.Equal(got, want) {
		t.Errorf("table order = %v, want %v", got, want)
	}
	if add[0].Cookie != 5 || add[1].Cookie != 6 || add[4].Cookie != 9 {
		t.Errorf("Update reordered the caller's slice: %v", add)
	}

	// The same rules through Add, one at a time, land in the same order.
	ref := New()
	for _, r := range []Rule{rule(30, 1), rule(20, 3), rule(10, 4)} {
		ref.Add(r)
	}
	for _, r := range add {
		ref.Add(r)
	}
	if got := cookies(ref); !slices.Equal(got, want) {
		t.Errorf("Add order = %v, want %v", got, want)
	}

	st := tbl.Stats()
	if st.RulesAdded != 9 || st.RulesRemoved != 1 {
		t.Errorf("RulesAdded, RulesRemoved = %d, %d, want 9, 1", st.RulesAdded, st.RulesRemoved)
	}
	if n := tbl.RemoveByCookie(7); n != 1 {
		t.Errorf("RemoveByCookie removed %d, want 1", n)
	}
	if st := tbl.Stats(); st.RulesAdded != 9 || st.RulesRemoved != 2 {
		t.Errorf("after RemoveByCookie: RulesAdded, RulesRemoved = %d, %d, want 9, 2", st.RulesAdded, st.RulesRemoved)
	}

	// Into an empty table, and dropping everything.
	empty := New()
	empty.Update(nil, add)
	if got, want := cookies(empty), []uint64{6, 9, 5, 7, 8}; !slices.Equal(got, want) {
		t.Errorf("empty table order = %v, want %v", got, want)
	}
	if n := empty.Update(func(*Rule) bool { return true }, nil); n != 5 || empty.Len() != 0 {
		t.Errorf("drop-all removed %d leaving %d, want 5 leaving 0", n, empty.Len())
	}
}

// TestUpdateInvalidatesCacheOnlyOnChange: the microflow cache survives a
// batch that changes nothing (nil or never-true drop, empty add) and is
// wiped by one that removes or adds a rule.
func TestUpdateInvalidatesCacheOnlyOnChange(t *testing.T) {
	tbl := New(WithDefaultAction(ActionDrop))
	tbl.Add(Rule{Priority: 10, Match: Match{EthSrc: MACPtr(devMAC)}, Action: ActionForward, Cookie: 7})
	warm := func() {
		t.Helper()
		tbl.Lookup(tcpKey(devMAC, gwMAC, devIP, cloud, 443))
		tbl.Lookup(tcpKey(devMAC, gwMAC, devIP, cloud, 80))
		if tbl.CacheLen() != 2 {
			t.Fatalf("CacheLen = %d after two lookups, want 2", tbl.CacheLen())
		}
	}
	warm()
	before := tbl.Stats()
	tbl.Update(nil, nil)
	tbl.Update(nil, []Rule{})
	tbl.Update(func(r *Rule) bool { return r.Cookie == 99 }, nil)
	if tbl.CacheLen() != 2 {
		t.Errorf("CacheLen = %d after no-op updates, want 2", tbl.CacheLen())
	}
	if tbl.Stats() != before {
		t.Errorf("no-op updates moved the counters: %+v -> %+v", before, tbl.Stats())
	}

	tbl.Update(nil, []Rule{{Priority: 20, Match: Match{IPDst: IPPtr(cloud)}, Action: ActionDrop, Cookie: 8}})
	if tbl.CacheLen() != 0 {
		t.Errorf("CacheLen = %d after an add-only update, want 0", tbl.CacheLen())
	}
	if got := tbl.Lookup(tcpKey(devMAC, gwMAC, devIP, cloud, 443)); got != ActionDrop {
		t.Errorf("lookup after update = %v, want the new rule's drop", got)
	}
	warm()
	tbl.Update(func(r *Rule) bool { return r.Cookie == 8 }, nil)
	if tbl.CacheLen() != 0 {
		t.Errorf("CacheLen = %d after a drop-only update, want 0", tbl.CacheLen())
	}
	if got := tbl.Lookup(tcpKey(devMAC, gwMAC, devIP, cloud, 443)); got != ActionForward {
		t.Errorf("lookup after removal = %v, want forward", got)
	}
}

func TestInsertCache(t *testing.T) {
	tbl := New(WithDefaultAction(ActionController))
	k := tcpKey(devMAC, gwMAC, devIP, cloud, 443)
	tbl.InsertCache(k, ActionForward, 0)
	if got := tbl.Lookup(k); got != ActionForward {
		t.Errorf("lookup after InsertCache = %v, want forward", got)
	}
	st := tbl.Stats()
	if st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", st.CacheHits)
	}
}

func TestCacheLimit(t *testing.T) {
	tbl := New(WithDefaultAction(ActionDrop), WithCacheLimit(2))
	for i := 0; i < 5; i++ {
		k := tcpKey(devMAC, gwMAC, devIP, cloud, uint16(1000+i))
		tbl.Lookup(k)
	}
	if got := tbl.CacheLen(); got > 2 {
		t.Errorf("CacheLen = %d, want <= 2", got)
	}
}

func TestNoMatchCounter(t *testing.T) {
	tbl := New(WithDefaultAction(ActionDrop))
	tbl.Lookup(Key{})
	if st := tbl.Stats(); st.NoMatch != 1 {
		t.Errorf("NoMatch = %d, want 1", st.NoMatch)
	}
}

func TestRulesSnapshot(t *testing.T) {
	tbl := New()
	tbl.Add(Rule{Priority: 1, Action: ActionDrop})
	tbl.Add(Rule{Priority: 5, Action: ActionForward})
	rules := tbl.Rules()
	if len(rules) != 2 || rules[0].Priority != 5 {
		t.Errorf("Rules() = %+v, want priority-descending", rules)
	}
}

func TestActionString(t *testing.T) {
	if ActionDrop.String() != "drop" || ActionForward.String() != "forward" || ActionController.String() != "controller" {
		t.Error("Action names wrong")
	}
}

func protoPtr(p packet.IPProto) *packet.IPProto { return &p }
func portPtr(p uint16) *uint16                  { return &p }

func BenchmarkLookupCacheHit(b *testing.B) {
	tbl := New(WithDefaultAction(ActionDrop))
	for i := 0; i < 1000; i++ {
		mac := devMAC
		mac[5] = byte(i)
		tbl.Add(Rule{Priority: i, Match: Match{EthSrc: MACPtr(mac)}, Action: ActionForward})
	}
	k := tcpKey(devMAC, gwMAC, devIP, cloud, 443)
	tbl.Lookup(k) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(k)
	}
}

func BenchmarkLookupRuleScan1000(b *testing.B) {
	tbl := New(WithDefaultAction(ActionDrop), WithCacheLimit(1)) // force scans
	for i := 0; i < 1000; i++ {
		mac := devMAC
		mac[5] = byte(i)
		mac[4] = byte(i >> 8)
		tbl.Add(Rule{Priority: i, Match: Match{EthSrc: MACPtr(mac)}, Action: ActionForward})
	}
	other := packet.MustParseMAC("aa:bb:cc:dd:ee:ff")
	k := tcpKey(other, gwMAC, devIP, cloud, 443)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(k)
	}
}

func TestEvictIdle(t *testing.T) {
	tbl := New(WithDefaultAction(ActionDrop))
	tbl.Add(Rule{Priority: 10, Match: Match{EthSrc: MACPtr(devMAC)}, Action: ActionForward})

	old := tcpKey(devMAC, gwMAC, devIP, cloud, 443)
	fresh := tcpKey(devMAC, gwMAC, devIP, cloud, 444)
	tbl.LookupAt(old, t0)
	tbl.LookupAt(fresh, t0.Add(time.Minute))
	if tbl.CacheLen() != 2 {
		t.Fatalf("CacheLen = %d, want 2", tbl.CacheLen())
	}
	if n := tbl.EvictIdle(t0.Add(30 * time.Second)); n != 1 {
		t.Errorf("EvictIdle removed %d entries, want 1", n)
	}
	if tbl.CacheLen() != 1 {
		t.Errorf("CacheLen after eviction = %d, want 1", tbl.CacheLen())
	}
	// A hit refreshes the timestamp and protects the entry.
	tbl.LookupAt(fresh, t0.Add(2*time.Minute))
	if n := tbl.EvictIdle(t0.Add(90 * time.Second)); n != 0 {
		t.Errorf("EvictIdle removed %d refreshed entries, want 0", n)
	}
}
