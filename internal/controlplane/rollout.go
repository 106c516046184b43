package controlplane

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/iotssp"
)

// Enroll registers a new device-type on the cluster's least-loaded
// shard, recording the training prints and the owning partition's
// enrolment history so a later migration or member replacement can
// replay it bit-identically.
func (c *Cluster) Enroll(name string, prints []*fingerprint.Fingerprint) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.bank.Enroll(name, prints); err != nil {
		return err
	}
	p, ok := c.bank.ShardOf(name)
	if !ok {
		return fmt.Errorf("controlplane: enrolled %q but no shard owns it", name)
	}
	copied := append([]*fingerprint.Fingerprint(nil), prints...)
	c.prints[name] = copied
	c.parts[p].events = append(c.parts[p].events, bankEvent{name: name, prints: copied})
	return nil
}

// enrollReconciled enrolls name on a shard, treating "already enrolled"
// as success when the shard's type list confirms it: an enrolment whose
// ack was lost and is being replayed must converge, not fail.
func enrollReconciled(s core.Shard, name string, prints []*fingerprint.Fingerprint) error {
	err := s.Enroll(name, prints)
	if err == nil {
		return nil
	}
	for _, t := range s.Types() {
		if t == name {
			return nil
		}
	}
	return err
}

// removeReconciled removes name from a shard, treating "unknown type"
// as success when the shard's type list confirms it is gone.
func removeReconciled(s core.Shard, name string) error {
	err := s.Remove(name)
	if err == nil {
		return nil
	}
	for _, t := range s.Types() {
		if t == name {
			return err
		}
	}
	return nil
}

// hasType reports whether a shard's served type list includes name. The
// call is a live wire round-trip on remote shards, so it doubles as the
// health probe of a migration gate.
func hasType(s core.Shard, name string) bool {
	for _, t := range s.Types() {
		if t == name {
			return true
		}
	}
	return false
}

// MigrateType relocates one enrolled device-type to partition dst
// through the staged rollout: train-on-target, health-gate, flip-route,
// drain-source. The route flips only after the destination provably
// serves the type; a failed gate rolls the target enrolment back and
// leaves the topology unchanged. The source's drain bumps its shard
// version once, so cached verdicts that depended on the moved type
// invalidate exactly once. Migrating a partition's last type off is
// legal: the emptied shard keeps serving (empty classify answers,
// tombstoned discrimination) until the topology retires it.
func (c *Cluster) MigrateType(name string, dst int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dst < 0 || dst >= len(c.parts) {
		return fmt.Errorf("controlplane: migrate %q: no partition %d", name, dst)
	}
	src, ok := c.bank.ShardOf(name)
	if !ok {
		return fmt.Errorf("controlplane: migrate %q: type not enrolled", name)
	}
	if src == dst {
		return nil
	}
	prints, ok := c.prints[name]
	if !ok {
		return fmt.Errorf("controlplane: migrate %q: no recorded training prints", name)
	}
	source, target := c.parts[src], c.parts[dst]

	// Stage 1 — train-on-target. Both shards accept the type until the
	// drain; the ShardedBank merge dedups the double-accept window.
	if err := enrollReconciled(target.shard, name, prints); err != nil {
		return fmt.Errorf("controlplane: migrate %q: train-on-target on partition %d: %w", name, dst, err)
	}
	target.events = append(target.events, bankEvent{name: name, prints: prints})

	// Stage 2 — health-gate: the destination must be healthy and report
	// the type served (the Types call is itself a wire round-trip) before
	// any route flips. A failed gate rolls the target enrolment back.
	healthy := target.comp == nil || target.comp.Healthy()
	if !healthy || !hasType(target.shard, name) {
		if rbErr := removeReconciled(target.shard, name); rbErr == nil {
			target.events = append(target.events, bankEvent{remove: true, name: name})
		}
		return fmt.Errorf("controlplane: migrate %q: partition %d failed the health gate (healthy=%v)", name, dst, healthy)
	}

	// Stage 3 — flip-route: atomically re-route discrimination and cache
	// dependency tagging, keeping the type's global enrolment position.
	if err := c.bank.SetOwner(name, dst); err != nil {
		if rbErr := removeReconciled(target.shard, name); rbErr == nil {
			target.events = append(target.events, bankEvent{remove: true, name: name})
		}
		return fmt.Errorf("controlplane: migrate %q: flip-route to partition %d: %w", name, dst, err)
	}

	// Stage 4 — drain-source: tombstone the type on the source. Its
	// version bump is the migration's one cache-invalidation signal.
	if err := removeReconciled(source.shard, name); err != nil {
		return fmt.Errorf("controlplane: migrate %q: route flipped to partition %d but draining partition %d failed: %w", name, dst, src, err)
	}
	source.events = append(source.events, bankEvent{remove: true, name: name})
	return nil
}

// MintStrategy selects how ReplaceMember mints a replacement bank.
type MintStrategy int

const (
	// MintAuto transfers an incumbent member's snapshot — O(transfer),
	// no training — and falls back to history replay when the transfer
	// breaks (no member reachable, a corrupt or rejected snapshot). The
	// default.
	MintAuto MintStrategy = iota
	// MintSnapshot requires the state-transfer path; a broken transfer is
	// an error instead of a silent retrain.
	MintSnapshot
	// MintReplay forces the history-replay path: initial training plus
	// every recorded enroll/remove, in order.
	MintReplay
)

// String names the strategy for error and metrics rendering.
func (m MintStrategy) String() string {
	switch m {
	case MintSnapshot:
		return "snapshot"
	case MintReplay:
		return "replay"
	default:
		return "auto"
	}
}

// mintReplayLocked replays a partition's enrolment history — initial
// training in the cached base order plus every recorded enroll/remove,
// in order — into a fresh bank. Because removal never consumes the
// training RNG and enrolment derives its randomness from the training
// ordinal, the replay is bit-identical to the partition's incumbent
// members; a retrain over the surviving type union would not be (the
// forests depend on enrolment order and the co-resident negative
// pools).
func (c *Cluster) mintReplayLocked(part *partition) (*core.Bank, error) {
	bank, err := core.TrainOrdered(c.cfg.Core, part.baseOrder, part.base)
	if err != nil {
		return nil, err
	}
	for _, ev := range part.events {
		if ev.remove {
			err = bank.Remove(ev.name)
		} else {
			err = bank.Enroll(ev.name, ev.prints)
		}
		if err != nil {
			return nil, fmt.Errorf("replaying %q: %w", ev.name, err)
		}
	}
	return bank, nil
}

// mintSnapshotLocked mints a replacement bank by state transfer: an
// incumbent member's serialized state (fetched over the snapshot wire
// verb) decoded into a fresh bank. O(transfer) instead of O(train) —
// no forest is induced — and bit-identical to the incumbents because
// the snapshot is their exact trained state.
func (c *Cluster) mintSnapshotLocked(part *partition) (*core.Bank, error) {
	snap, err := part.shard.Snapshot()
	if err != nil {
		return nil, err
	}
	return core.RestoreBank(c.cfg.Core, snap)
}

// mintLocked mints a replacement bank under the given strategy.
func (c *Cluster) mintLocked(part *partition, mint MintStrategy) (*core.Bank, error) {
	switch mint {
	case MintReplay:
		return c.mintReplayLocked(part)
	case MintSnapshot:
		return c.mintSnapshotLocked(part)
	default:
		bank, err := c.mintSnapshotLocked(part)
		if err == nil {
			return bank, nil
		}
		// Broken transfer: replay the partition's history instead.
		return c.mintReplayLocked(part)
	}
}

// MintReplacement mints — but does not host or join — a replacement
// bank for partition p under the given strategy. It exists for the
// rebalance experiment, which mints through both paths, times them, and
// asserts the snapshot-minted bank bit-identical to the replay-minted
// one before rolling the real membership.
func (c *Cluster) MintReplacement(p int, mint MintStrategy) (*core.Bank, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p < 0 || p >= len(c.parts) {
		return nil, fmt.Errorf("controlplane: mint replacement: no partition %d", p)
	}
	return c.mintLocked(c.parts[p], mint)
}

// ReplaceMember rolls partition p's member-th shard replica with the
// default MintAuto strategy: snapshot state transfer, history replay as
// the broken-transfer fallback.
func (c *Cluster) ReplaceMember(p, member int) error {
	return c.ReplaceMemberWith(p, member, MintAuto)
}

// ReplaceMemberWith rolls partition p's member-th shard replica: mint a
// replacement bank (state transfer or history replay per the
// strategy), host it, gate it against the group's served types and
// reconciled version, join it to the group, and only then detach and
// close the old member. The group's version floor keeps the reconciled
// version monotonic across the swap.
func (c *Cluster) ReplaceMemberWith(p, member int, mint MintStrategy) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p < 0 || p >= len(c.parts) {
		return fmt.Errorf("controlplane: replace member: no partition %d", p)
	}
	part := c.parts[p]
	if part.group == nil {
		return fmt.Errorf("controlplane: replace member: partition %d is not a multi-member shard group", p)
	}
	if member < 0 || member >= len(part.members) {
		return fmt.Errorf("controlplane: replace member: partition %d has no member %d", p, member)
	}

	// Mint the replacement.
	bank, err := c.mintLocked(part, mint)
	if err != nil {
		return fmt.Errorf("controlplane: replace member %d of partition %d: minting (%s): %w", member, p, mint, err)
	}

	// Start: host the replacement on its own shard replica.
	rep := iotssp.NewShardReplica(bank, c.cfg.Server)
	if err := rep.Start(); err != nil {
		return fmt.Errorf("controlplane: replace member %d of partition %d: starting replica: %w", member, p, err)
	}

	// Gate: the replacement must serve exactly the group's type list and
	// report the group's reconciled version. Reading the group's Types
	// first refreshes the members' cached version stamps, so the version
	// comparison is against live state, not a stale cache.
	served := part.group.Types()
	minted := bank.Types()
	sort.Strings(served)
	sort.Strings(minted)
	if !reflect.DeepEqual(minted, served) {
		rep.Close()
		return fmt.Errorf("controlplane: replace member %d of partition %d: minted types %v != group types %v", member, p, minted, served)
	}
	if got, want := bank.Version(), part.group.Version(); got != want {
		rep.Close()
		return fmt.Errorf("controlplane: replace member %d of partition %d: minted version %d != group version %d", member, p, got, want)
	}

	// Join, then detach: the group serves from both for the instant the
	// swap takes, never from neither.
	old := part.members[member]
	part.group.AddMember(rep.Addr())
	if err := part.group.RemoveMember(old.Addr()); err != nil {
		part.group.RemoveMember(rep.Addr())
		rep.Close()
		return fmt.Errorf("controlplane: replace member %d of partition %d: detaching old member: %w", member, p, err)
	}
	old.Close()
	part.members[member] = rep
	part.memberBanks[member] = bank
	for i, m := range c.comps {
		if m.comp == Component(old) {
			c.comps[i] = managed{kind: "server", comp: rep}
			break
		}
	}
	return nil
}

// RepairMember reconciles a diverged member of partition p's shard
// group against the partition's recorded enrolment history: types the
// history says are enrolled but the member does not serve are replayed
// to it (enroll, with the recorded prints, in global history order),
// and types the member serves that the history has removed are retired.
// It returns the names repaired in the order they were applied. The
// repair speaks the shard wire protocol straight at the lagging member
// — the group would route around it — so a member that missed a
// fan-out (severed mid-enrolment, revived from a stale snapshot)
// converges without a full replacement roll.
func (c *Cluster) RepairMember(p, member int) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p < 0 || p >= len(c.parts) {
		return nil, fmt.Errorf("controlplane: repair member: no partition %d", p)
	}
	part := c.parts[p]
	if part.spec.Local || len(part.members) == 0 {
		return nil, fmt.Errorf("controlplane: repair member: partition %d has no remote members", p)
	}
	if member < 0 || member >= len(part.members) {
		return nil, fmt.Errorf("controlplane: repair member: partition %d has no member %d", p, member)
	}

	// The authoritative state: base order, then events, tracking final
	// presence and preserving enrolment order.
	var order []string
	expected := make(map[string]bool, len(part.baseOrder))
	for _, name := range part.baseOrder {
		order = append(order, name)
		expected[name] = true
	}
	for _, ev := range part.events {
		if ev.remove {
			expected[ev.name] = false
			continue
		}
		if !expected[ev.name] {
			order = append(order, ev.name)
		}
		expected[ev.name] = true
	}

	// The member's served state, straight off its own wire endpoint.
	rs := iotssp.NewRemoteShard(part.members[member].Addr(), c.cfg.Shard)
	defer rs.Close()
	have := make(map[string]bool)
	for _, name := range rs.Types() {
		have[name] = true
	}

	var repaired []string
	for _, name := range order {
		switch {
		case expected[name] && !have[name]:
			prints, ok := c.prints[name]
			if !ok {
				return repaired, fmt.Errorf("controlplane: repair member %d of partition %d: no recorded prints for %q", member, p, name)
			}
			if err := enrollReconciled(rs, name, prints); err != nil {
				return repaired, fmt.Errorf("controlplane: repair member %d of partition %d: replaying %q: %w", member, p, name, err)
			}
			repaired = append(repaired, name)
		case !expected[name] && have[name]:
			if err := removeReconciled(rs, name); err != nil {
				return repaired, fmt.Errorf("controlplane: repair member %d of partition %d: retiring %q: %w", member, p, name, err)
			}
			repaired = append(repaired, name)
		}
	}
	return repaired, nil
}
