// Package enforce implements IoT Sentinel's mitigation layer (paper §V):
// per-device isolation levels, the enforcement-rule cache of Fig. 2, the
// trusted/untrusted network overlays of Fig. 3, and the compilation of
// enforcement rules into flow-table entries.
package enforce

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/flowtable"
	"repro/internal/packet"
)

// IsolationLevel is the confinement class assigned to a device.
type IsolationLevel int

// Isolation levels of Fig. 3.
const (
	// Strict: device may talk only to other devices in the untrusted
	// overlay; no Internet access. Assigned to unknown device-types.
	Strict IsolationLevel = iota + 1
	// Restricted: untrusted overlay plus an explicit set of permitted
	// remote endpoints (e.g. the vendor cloud). Assigned to device-types
	// with known vulnerabilities.
	Restricted
	// Trusted: any device in the trusted overlay and unrestricted
	// Internet access. Assigned to device-types with no known
	// vulnerabilities.
	Trusted
)

// String returns the level name as used in the paper.
func (l IsolationLevel) String() string {
	switch l {
	case Strict:
		return "strict"
	case Restricted:
		return "restricted"
	case Trusted:
		return "trusted"
	default:
		return fmt.Sprintf("IsolationLevel(%d)", int(l))
	}
}

// Valid reports whether l is one of the three defined levels.
func (l IsolationLevel) Valid() bool { return l >= Strict && l <= Trusted }

// Rule is one enforcement rule as in Fig. 2: the device it applies to
// (identified by MAC address, assuming static MACs), its isolation level,
// and — for Restricted — the permitted remote endpoints through which the
// device may reach its cloud service.
type Rule struct {
	DeviceMAC packet.MAC
	// DeviceType records the identified type, for operator display.
	DeviceType string
	Level      IsolationLevel
	// PermittedIPs are the remote endpoints a Restricted device may
	// contact.
	PermittedIPs []packet.IP4
}

// Hash returns the rule's storage hash (Fig. 2 shows rules stored hashed
// in the cache): FNV-1a over the MAC, "/<decimal level>/" and the
// permitted endpoints in ascending order. Every flow entry compiled for
// the rule carries it as its cookie, and an install hashes each overlay
// peer's rule, so it is computed inline without allocating.
func (r *Rule) Hash() uint64 {
	var scratch [24]byte
	h := fnv1a(14695981039346656037, r.DeviceMAC[:])
	h = fnv1a(h, append(strconv.AppendInt(append(scratch[:0], '/'), int64(r.Level), 10), '/'))

	// Sorting the endpoints as big-endian integers is sorting them
	// bytewise; rules carry a handful, so the buffer stays on the stack.
	var buf [8]uint32
	ips := buf[:0]
	for _, ip := range r.PermittedIPs {
		v := binary.BigEndian.Uint32(ip[:])
		i := len(ips)
		ips = append(ips, v)
		for ; i > 0 && ips[i-1] > v; i-- {
			ips[i] = ips[i-1]
		}
		ips[i] = v
	}
	for _, v := range ips {
		h = fnv1a(h, binary.BigEndian.AppendUint32(scratch[:0], v))
	}
	return h
}

// fnv1a folds p into the 64-bit FNV-1a state h.
func fnv1a(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// permits reports whether the rule permits the external destination ip.
func (r *Rule) permits(ip packet.IP4) bool {
	for _, p := range r.PermittedIPs {
		if p == ip {
			return true
		}
	}
	return false
}

// Verdict is an enforcement decision for one packet.
type Verdict struct {
	Allow bool
	// Reason is a short operator-readable explanation.
	Reason string
}

// Engine holds the enforcement-rule cache and overlay membership and
// decides, per packet, whether the traffic is permitted. Rules are stored
// in a hash table keyed by device MAC so the lookup cost stays flat as
// the cache grows (§V). All methods are safe for concurrent use.
type Engine struct {
	mu    sync.RWMutex
	rules map[packet.MAC]*Rule
	// infra marks infrastructure endpoints (the gateway itself, local
	// servers) that every overlay may reach: confinement must not cut
	// devices off from DHCP, DNS or the measurement servers.
	infra map[packet.MAC]bool
	// localSubnet distinguishes local destinations from the Internet.
	localNet packet.IP4 // /24 network address
}

// NewEngine creates an engine enforcing on the given /24 local subnet
// (e.g. 192.168.1.0).
func NewEngine(localNet packet.IP4) *Engine {
	return &Engine{
		rules:    make(map[packet.MAC]*Rule),
		infra:    make(map[packet.MAC]bool),
		localNet: localNet,
	}
}

// SetInfrastructure marks mac as an infrastructure endpoint reachable
// from both overlays.
func (e *Engine) SetInfrastructure(mac packet.MAC) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.infra[mac] = true
}

// SetRule installs or replaces the enforcement rule for a device.
func (e *Engine) SetRule(r Rule) error {
	if !r.Level.Valid() {
		return fmt.Errorf("enforce: invalid isolation level %d", r.Level)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := r
	cp.PermittedIPs = append([]packet.IP4(nil), r.PermittedIPs...)
	e.rules[r.DeviceMAC] = &cp
	return nil
}

// RemoveRule drops the rule for mac (e.g. when the device leaves the
// network) and reports whether one existed.
func (e *Engine) RemoveRule(mac packet.MAC) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.rules[mac]
	delete(e.rules, mac)
	return ok
}

// RuleFor returns the rule for mac, if any.
func (e *Engine) RuleFor(mac packet.MAC) (Rule, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, ok := e.rules[mac]
	if !ok {
		return Rule{}, false
	}
	cp := *r
	cp.PermittedIPs = append([]packet.IP4(nil), r.PermittedIPs...)
	return cp, true
}

// Len returns the number of cached enforcement rules.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.rules)
}

// IsLocal reports whether ip is inside the gateway's local /24 subnet
// (or a broadcast/multicast address, which never leaves the segment).
func (e *Engine) IsLocal(ip packet.IP4) bool {
	if ip.IsMulticast() || ip.IsBroadcast() || ip == packet.IP4Zero {
		return true
	}
	return ip[0] == e.localNet[0] && ip[1] == e.localNet[1] && ip[2] == e.localNet[2]
}

// levelOf returns the effective isolation level of a device: its rule's
// level, or Strict when the device has no rule yet (unknown devices are
// maximally confined).
func (e *Engine) levelOf(mac packet.MAC) (IsolationLevel, *Rule) {
	if r, ok := e.rules[mac]; ok {
		return r.Level, r
	}
	return Strict, nil
}

// overlayOf maps a level to its overlay: Trusted devices live in the
// trusted overlay, everything else in the untrusted one (Fig. 3).
func overlayOf(l IsolationLevel) string {
	if l == Trusted {
		return "trusted"
	}
	return "untrusted"
}

// DecideLocal rules on a frame between two local devices: both must live
// in the same overlay. Link-layer group traffic (broadcast/multicast) and
// frames to or from infrastructure endpoints are always permitted —
// confinement must not break ARP, DHCP or gateway services.
func (e *Engine) DecideLocal(src, dst packet.MAC) Verdict {
	if dst.IsBroadcast() || dst.IsMulticast() {
		return Verdict{Allow: true, Reason: "link-layer group traffic"}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.infra[src] || e.infra[dst] {
		return Verdict{Allow: true, Reason: "infrastructure endpoint"}
	}
	sl, _ := e.levelOf(src)
	dl, _ := e.levelOf(dst)
	so, do := overlayOf(sl), overlayOf(dl)
	if so != do {
		return Verdict{Allow: false, Reason: fmt.Sprintf("cross-overlay traffic (%s -> %s)", so, do)}
	}
	return Verdict{Allow: true, Reason: "same overlay (" + so + ")"}
}

// DecideExternal rules on a packet from a local device to an Internet
// destination.
func (e *Engine) DecideExternal(src packet.MAC, dst packet.IP4) Verdict {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sl, rule := e.levelOf(src)
	switch sl {
	case Trusted:
		return Verdict{Allow: true, Reason: "trusted: unrestricted Internet"}
	case Restricted:
		if rule != nil && rule.permits(dst) {
			return Verdict{Allow: true, Reason: "restricted: permitted endpoint"}
		}
		return Verdict{Allow: false, Reason: "restricted: endpoint not permitted"}
	default:
		return Verdict{Allow: false, Reason: "strict: no Internet access"}
	}
}

// DecideInbound rules on a packet arriving from the Internet for a local
// device: mirrored semantics of DecideExternal, hindering adversaries
// from reaching vulnerable devices.
func (e *Engine) DecideInbound(src packet.IP4, dst packet.MAC) Verdict {
	e.mu.RLock()
	defer e.mu.RUnlock()
	dl, rule := e.levelOf(dst)
	switch dl {
	case Trusted:
		return Verdict{Allow: true, Reason: "trusted: unrestricted Internet"}
	case Restricted:
		if rule != nil && rule.permits(src) {
			return Verdict{Allow: true, Reason: "restricted: permitted endpoint"}
		}
		return Verdict{Allow: false, Reason: "restricted: endpoint not permitted"}
	default:
		return Verdict{Allow: false, Reason: "strict: no Internet access"}
	}
}

// DecidePacket is the full per-packet enforcement decision used by the
// gateway datapath: outbound WAN traffic is judged by the source device's
// rule, inbound WAN traffic by the destination device's rule, and local
// traffic by overlay membership.
func (e *Engine) DecidePacket(p *packet.Packet) Verdict {
	if p.IPv4 != nil {
		switch {
		case !e.IsLocal(p.IPv4.Dst):
			return e.DecideExternal(p.Eth.Src, p.IPv4.Dst)
		case !e.IsLocal(p.IPv4.Src) && p.IPv4.Src != packet.IP4Zero:
			return e.DecideInbound(p.IPv4.Src, p.Eth.Dst)
		}
	}
	return e.DecideLocal(p.Eth.Src, p.Eth.Dst)
}

// Rules returns a copy of all cached enforcement rules, sorted by device
// MAC for deterministic iteration.
func (e *Engine) Rules() []Rule {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]Rule, 0, len(e.rules))
	for _, r := range e.rules {
		cp := *r
		cp.PermittedIPs = append([]packet.IP4(nil), r.PermittedIPs...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < 6; k++ {
			if out[i].DeviceMAC[k] != out[j].DeviceMAC[k] {
				return out[i].DeviceMAC[k] < out[j].DeviceMAC[k]
			}
		}
		return false
	})
	return out
}

// OverlayPeers returns the MACs of rule-holding devices living in the
// same overlay as level, excluding self. Used when compiling flow rules.
func (e *Engine) OverlayPeers(level IsolationLevel, self packet.MAC) []packet.MAC {
	e.mu.RLock()
	defer e.mu.RUnlock()
	want := overlayOf(level)
	var out []packet.MAC
	for mac, r := range e.rules {
		if mac == self {
			continue
		}
		if overlayOf(r.Level) == want {
			out = append(out, mac)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < 6; k++ {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// MemoryFootprint estimates the bytes held by the rule cache: the hash
// map buckets plus per-rule storage including permitted endpoint lists.
// Used by the Fig. 6c memory experiment.
func (e *Engine) MemoryFootprint() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	const (
		entryOverhead = 48 // map bucket share + pointer
		ruleBase      = 64 // struct fields
	)
	total := 0
	for _, r := range e.rules {
		total += entryOverhead + ruleBase + len(r.DeviceType) + 4*len(r.PermittedIPs)
	}
	return total
}

// pairPriority is the flow-table priority of overlay pair entries.
const pairPriority = 300

// PairRules is the single definition of a pair entry: the two entries,
// one per direction, that let owner and its overlay peer exchange
// frames, stamped with the cookie of owner's rule. CompileFlowRules
// emits one pair per peer; an incremental install emits the pairs the
// peers of a changed device hold for it.
func PairRules(owner, peer packet.MAC, cookie uint64) [2]flowtable.Rule {
	o, p := flowtable.MACPtr(owner), flowtable.MACPtr(peer)
	return [2]flowtable.Rule{
		{Priority: pairPriority, Match: flowtable.Match{EthSrc: o, EthDst: p}, Action: flowtable.ActionForward, Cookie: cookie},
		{Priority: pairPriority, Match: flowtable.Match{EthSrc: p, EthDst: o}, Action: flowtable.ActionForward, Cookie: cookie},
	}
}

// IsPairWith reports whether fr is a pair entry with mac at either end,
// whichever device's rule owns it.
func IsPairWith(fr *flowtable.Rule, mac packet.MAC) bool {
	m := &fr.Match
	return fr.Priority == pairPriority && m.EthSrc != nil && m.EthDst != nil &&
		(*m.EthSrc == mac || *m.EthDst == mac)
}

// CompileFlowRules translates an enforcement rule into OVS flow-table
// entries, as the custom Floodlight module does in the paper. The overlay
// peers are the other local devices in the same overlay at compile time;
// when membership changes the controller adds or drops the peers' pair
// entries (PairRules). Traffic routed *through* the gateway toward the
// WAN carries the gateway's MAC too, so the control-traffic exemptions
// are scoped to ARP and to the gateway's own IP — never to the gateway
// MAC alone.
func CompileFlowRules(r Rule, overlayPeers []packet.MAC, gatewayMAC packet.MAC, gatewayIP packet.IP4) []flowtable.Rule {
	cookie := r.Hash()
	out := make([]flowtable.Rule, 0, 4+2*len(overlayPeers)+len(r.PermittedIPs))

	// Always allow link-local control traffic (ARP to the gateway, DHCP/
	// DNS/NTP served by the gateway itself) and broadcast/multicast
	// chatter so confinement does not brick the device.
	out = append(out,
		flowtable.Rule{
			Priority: 400,
			Match: flowtable.Match{
				EthSrc:    flowtable.MACPtr(r.DeviceMAC),
				EthDst:    flowtable.MACPtr(gatewayMAC),
				EtherType: etherTypePtr(packet.EtherTypeARP),
			},
			Action: flowtable.ActionForward,
			Cookie: cookie,
		},
		flowtable.Rule{
			Priority: 400,
			Match: flowtable.Match{
				EthSrc: flowtable.MACPtr(r.DeviceMAC),
				EthDst: flowtable.MACPtr(gatewayMAC),
				IPDst:  flowtable.IPPtr(gatewayIP),
			},
			Action: flowtable.ActionForward,
			Cookie: cookie,
		},
		flowtable.Rule{
			Priority: 350,
			Match:    flowtable.Match{EthSrc: flowtable.MACPtr(r.DeviceMAC), EthDstGroup: flowtable.BoolPtr(true)},
			Action:   flowtable.ActionForward,
			Cookie:   cookie,
		},
	)

	// Overlay peers, both directions.
	for _, peer := range overlayPeers {
		pair := PairRules(r.DeviceMAC, peer, cookie)
		out = append(out, pair[:]...)
	}

	// Permitted cloud endpoints for Restricted devices.
	if r.Level == Restricted {
		for _, ip := range r.PermittedIPs {
			out = append(out, flowtable.Rule{
				Priority: 200,
				Match:    flowtable.Match{EthSrc: flowtable.MACPtr(r.DeviceMAC), IPDst: flowtable.IPPtr(ip)},
				Action:   flowtable.ActionForward,
				Cookie:   cookie,
			})
		}
	}

	// Everyone but a Trusted device gets a final drop. A Trusted device's
	// WAN-bound traffic, which is routed through the gateway MAC, is
	// forwarded; any other frame from it matches nothing here and is
	// punted to the controller, where the engine decides — a blanket
	// forward on its source MAC would carry it across overlays.
	last := flowtable.Rule{
		Priority: 100,
		Match:    flowtable.Match{EthSrc: flowtable.MACPtr(r.DeviceMAC)},
		Action:   flowtable.ActionDrop,
		Cookie:   cookie,
	}
	if r.Level == Trusted {
		last.Match.EthDst = flowtable.MACPtr(gatewayMAC)
		last.Action = flowtable.ActionForward
	}
	return append(out, last)
}

// etherTypePtr returns a pointer to t, for Match literals.
func etherTypePtr(t packet.EtherType) *packet.EtherType { return &t }
