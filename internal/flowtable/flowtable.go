// Package flowtable implements an Open vSwitch-style flow table: a
// priority-ordered list of wildcard match rules with actions, fronted by
// an exact-match microflow cache so that established flows are forwarded
// with a single hash lookup, as the paper's Security Gateway requires for
// low-latency enforcement (§V).
package flowtable

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/packet"
)

// Action is what the switch does with packets of a flow.
type Action int

// Actions, mirroring the subset of OpenFlow the Security Gateway uses.
const (
	// ActionDrop silently discards the packet.
	ActionDrop Action = iota + 1
	// ActionForward delivers the packet toward its destination.
	ActionForward
	// ActionController punts the packet to the SDN controller (used for
	// the first packets of unknown devices so they can be fingerprinted).
	ActionController
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case ActionDrop:
		return "drop"
	case ActionForward:
		return "forward"
	case ActionController:
		return "controller"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Key is the exact-match tuple of a flow, the microflow cache key.
type Key struct {
	EthSrc    packet.MAC
	EthDst    packet.MAC
	EtherType packet.EtherType
	IPSrc     packet.IP4
	IPDst     packet.IP4
	IPProto   packet.IPProto
	L4Src     uint16
	L4Dst     uint16
}

// KeyOf extracts the flow key of a packet.
func KeyOf(p *packet.Packet) Key {
	k := Key{EthSrc: p.Eth.Src, EthDst: p.Eth.Dst, EtherType: p.Eth.Type}
	switch {
	case p.IPv4 != nil:
		k.IPSrc = p.IPv4.Src
		k.IPDst = p.IPv4.Dst
		k.IPProto = p.IPv4.Proto
	case p.IPv6 != nil:
		// IPv6 flows are keyed on the transport tuple only; the gateway's
		// enforcement semantics key on MACs anyway.
		k.IPProto = p.IPv6.NextHeader
	}
	if sp, ok := p.SrcPort(); ok {
		k.L4Src = sp
	}
	if dp, ok := p.DstPort(); ok {
		k.L4Dst = dp
	}
	return k
}

// Match is a wildcard flow match: nil fields match anything.
type Match struct {
	EthSrc *packet.MAC
	EthDst *packet.MAC
	// EthDstGroup, when set, requires the destination MAC to be (true) or
	// not be (false) a broadcast/multicast group address.
	EthDstGroup *bool
	EtherType   *packet.EtherType
	IPSrc       *packet.IP4
	IPDst       *packet.IP4
	IPProto     *packet.IPProto
	L4Dst       *uint16
}

// Covers reports whether the match covers the exact-match key.
func (m *Match) Covers(k Key) bool {
	if m.EthSrc != nil && *m.EthSrc != k.EthSrc {
		return false
	}
	if m.EthDst != nil && *m.EthDst != k.EthDst {
		return false
	}
	if m.EthDstGroup != nil {
		group := k.EthDst.IsBroadcast() || k.EthDst.IsMulticast()
		if group != *m.EthDstGroup {
			return false
		}
	}
	if m.EtherType != nil && *m.EtherType != k.EtherType {
		return false
	}
	if m.IPSrc != nil && *m.IPSrc != k.IPSrc {
		return false
	}
	if m.IPDst != nil && *m.IPDst != k.IPDst {
		return false
	}
	if m.IPProto != nil && *m.IPProto != k.IPProto {
		return false
	}
	if m.L4Dst != nil && *m.L4Dst != k.L4Dst {
		return false
	}
	return true
}

// MACPtr returns a pointer to m, for Match literals.
func MACPtr(m packet.MAC) *packet.MAC { return &m }

// IPPtr returns a pointer to ip, for Match literals.
func IPPtr(ip packet.IP4) *packet.IP4 { return &ip }

// BoolPtr returns a pointer to b, for Match literals.
func BoolPtr(b bool) *bool { return &b }

// Rule is one flow-table entry.
type Rule struct {
	// Priority orders rules; higher wins. Equal priorities break toward
	// the earlier-installed rule.
	Priority int
	Match    Match
	Action   Action
	// Cookie identifies the rule for removal and statistics; the
	// enforcement layer stamps it with the owning device rule's hash.
	Cookie uint64
}

// Stats are cumulative table counters.
type Stats struct {
	Lookups   uint64
	CacheHits uint64
	Misses    uint64 // lookups resolved by the rule scan
	NoMatch   uint64 // lookups matching no rule
	// RulesAdded and RulesRemoved count the entries every Add, Update and
	// RemoveByCookie installed and dropped.
	RulesAdded   uint64
	RulesRemoved uint64
}

// Table is the flow table. All methods are safe for concurrent use.
type Table struct {
	mu      sync.RWMutex
	rules   []Rule // sorted by descending priority, stable
	cache   map[Key]cacheEntry
	stats   Stats
	deflt   Action
	maxSize int
}

type cacheEntry struct {
	action   Action
	cookie   uint64
	hits     uint64
	lastUsed time.Time
}

// Option configures a Table.
type Option func(*Table)

// WithDefaultAction sets the action for packets matching no rule
// (default ActionController, as an SDN switch punts unknown flows).
func WithDefaultAction(a Action) Option {
	return func(t *Table) { t.deflt = a }
}

// WithCacheLimit caps the microflow cache size; 0 means unlimited.
func WithCacheLimit(n int) Option {
	return func(t *Table) { t.maxSize = n }
}

// New creates an empty table.
func New(opts ...Option) *Table {
	t := &Table{cache: make(map[Key]cacheEntry), deflt: ActionController}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Add installs a rule and invalidates the microflow cache (as OVS
// revalidates its datapath flows when the table changes).
func (t *Table) Add(r Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Insert keeping descending priority order, stable for equal
	// priorities.
	i := sort.Search(len(t.rules), func(i int) bool { return t.rules[i].Priority < r.Priority })
	t.rules = append(t.rules, Rule{})
	copy(t.rules[i+1:], t.rules[i:])
	t.rules[i] = r
	t.stats.RulesAdded++
	t.invalidateLocked()
}

// Update applies one batch change under one lock: it removes every rule
// drop reports true for (nil drops nothing), then installs add, and
// returns how many rules were removed. Among equal priorities installed
// rules stay ahead of added ones and added ones keep their order in add,
// exactly as a sequence of Adds would leave them. The microflow cache is
// invalidated once, and only if a rule was removed or added. drop runs
// with the table locked and must not call back into it.
func (t *Table) Update(drop func(*Rule) bool, add []Rule) (removed int) {
	sorted := append([]Rule(nil), add...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Priority > sorted[j].Priority })

	t.mu.Lock()
	defer t.mu.Unlock()
	if drop != nil {
		for i := range t.rules {
			if drop(&t.rules[i]) {
				removed++
			} else if removed > 0 {
				t.rules[i-removed] = t.rules[i]
			}
		}
		t.rules = t.rules[:len(t.rules)-removed]
	}
	if removed == 0 && len(sorted) == 0 {
		return 0
	}

	// Merge from the back, so the rules ahead of the lowest insertion
	// point never move; on equal priority the added rule goes behind.
	i, j := len(t.rules)-1, len(sorted)-1
	t.rules = append(t.rules, sorted...)
	for w := len(t.rules) - 1; j >= 0; w-- {
		if i >= 0 && t.rules[i].Priority < sorted[j].Priority {
			t.rules[w] = t.rules[i]
			i--
		} else {
			t.rules[w] = sorted[j]
			j--
		}
	}
	t.stats.RulesAdded += uint64(len(sorted))
	t.stats.RulesRemoved += uint64(removed)
	t.invalidateLocked()
	return removed
}

// RemoveByCookie removes every rule with the given cookie and returns how
// many were removed.
func (t *Table) RemoveByCookie(cookie uint64) int {
	return t.Update(func(r *Rule) bool { return r.Cookie == cookie }, nil)
}

// invalidateLocked clears the microflow cache. Callers hold mu.
func (t *Table) invalidateLocked() {
	clear(t.cache)
}

// Lookup resolves the action for a flow key: first the exact-match cache,
// then the priority rule scan (whose result is inserted into the cache).
func (t *Table) Lookup(k Key) Action { return t.LookupAt(k, time.Time{}) }

// LookupAt is Lookup with an explicit timestamp recorded on the cache
// entry, so idle microflows can be evicted later (OVS datapath flows
// expire the same way).
func (t *Table) LookupAt(k Key, now time.Time) Action {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Lookups++
	if e, ok := t.cache[k]; ok {
		t.stats.CacheHits++
		e.hits++
		e.lastUsed = now
		t.cache[k] = e
		return e.action
	}
	t.stats.Misses++
	action := t.deflt
	cookie := uint64(0)
	matched := false
	for i := range t.rules {
		if t.rules[i].Match.Covers(k) {
			action = t.rules[i].Action
			cookie = t.rules[i].Cookie
			matched = true
			break
		}
	}
	if !matched {
		t.stats.NoMatch++
	}
	if t.maxSize == 0 || len(t.cache) < t.maxSize {
		t.cache[k] = cacheEntry{action: action, cookie: cookie, lastUsed: now}
	}
	return action
}

// EvictIdle removes microflow cache entries not used since the cutoff
// and returns how many were evicted. Entries inserted through Lookup
// (zero timestamp) count as idle.
func (t *Table) EvictIdle(cutoff time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	evicted := 0
	for k, e := range t.cache {
		if e.lastUsed.Before(cutoff) {
			delete(t.cache, k)
			evicted++
		}
	}
	return evicted
}

// LookupPacket resolves the action for a packet.
func (t *Table) LookupPacket(p *packet.Packet) Action { return t.Lookup(KeyOf(p)) }

// InsertCache installs an exact-match microflow entry directly, as the
// SDN controller does after deciding a punted packet.
func (t *Table) InsertCache(k Key, a Action, cookie uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.maxSize != 0 && len(t.cache) >= t.maxSize {
		return
	}
	t.cache[k] = cacheEntry{action: a, cookie: cookie}
}

// Stats returns a snapshot of the table counters.
func (t *Table) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats
}

// Len returns the number of installed rules.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rules)
}

// CacheLen returns the number of cached microflows.
func (t *Table) CacheLen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.cache)
}

// Rules returns a copy of the installed rules in priority order.
func (t *Table) Rules() []Rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]Rule(nil), t.rules...)
}
