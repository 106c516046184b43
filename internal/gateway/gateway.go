// Package gateway implements the Security Gateway (paper §III-A, §V):
// the SDN-based home router that monitors new devices, extracts their
// fingerprints, consults the IoT Security Service, and enforces the
// returned isolation level on every forwarded frame.
//
// The gateway plugs into the netsim medium as its bridge function. Frame
// handling mirrors the paper's datapath: the custom controller module
// sees every flow; established flows hit the exact-match flow cache; the
// first packet of a new flow pays a flow-setup cost. The time spent in
// monitoring and rule lookup is *measured* on the host and injected into
// the virtual timeline, so enforcement overhead in the experiments is
// real, not assumed.
package gateway

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/enforce"
	"repro/internal/fingerprint"
	"repro/internal/flowtable"
	"repro/internal/iotssp"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sniff"
)

// Identifier is the gateway's dependency on the IoT Security Service.
// Both the TCP client and the in-process service adapter satisfy it.
//
// Identify is called concurrently from the gateway's pool of
// IdentWorkers goroutines; implementations must be safe for concurrent
// use.
type Identifier interface {
	Identify(ctx context.Context, mac string, fp *fingerprint.Fingerprint) (iotssp.Response, error)
}

// BatchIdentifier is the streamed-batch refinement of Identifier: the
// gateway's identification workers aggregate queued setup captures and
// submit them as one call instead of one round-trip per capture. The
// pooled TCP client answers it with a single pipelined burst per
// connection; the in-process adapter feeds the service's batch path
// directly. Results and errors are positional: errs[i] reports the
// fate of (macs[i], fps[i]) and resps[i] is only meaningful when
// errs[i] is nil. Implementations must be safe for concurrent use.
type BatchIdentifier interface {
	IdentifyBatch(ctx context.Context, macs []string, fps []*fingerprint.Fingerprint) ([]iotssp.Response, []error)
}

// LocalService adapts an in-process iotssp.Service to the Identifier
// interface (for simulations that do not need the TCP hop).
type LocalService struct {
	Svc *iotssp.Service
}

// Identify implements Identifier.
func (l LocalService) Identify(_ context.Context, mac string, fp *fingerprint.Fingerprint) (iotssp.Response, error) {
	if fp == nil {
		return iotssp.Response{}, fmt.Errorf("gateway: identify %s: %w", mac, errNilFingerprint)
	}
	return l.Svc.Identify(mac, fp), nil
}

// IdentifyBatch implements BatchIdentifier straight onto the service's
// batched verdict path (cache, dedup, one bank inference pass).
func (l LocalService) IdentifyBatch(_ context.Context, macs []string, fps []*fingerprint.Fingerprint) ([]iotssp.Response, []error) {
	resps := l.Svc.IdentifyBatch(macs, fps, 0)
	errs := make([]error, len(resps))
	for i, resp := range resps {
		if resp.Error != "" {
			errs[i] = fmt.Errorf("gateway: service error: %s", resp.Error)
		}
	}
	return resps, errs
}

// GatewayConfig is the intention-revealing name for this package's
// Config: three packages (core, gateway, dataplane) each export a
// Config, and call sites that assemble a whole deployment read better
// when each one names its layer. New code should prefer GatewayConfig;
// Config remains as the canonical declaration.
type GatewayConfig = Config

// Config configures a Security Gateway.
type Config struct {
	// MAC and IP identify the gateway itself on the local segment.
	MAC packet.MAC
	IP  packet.IP4
	// LocalNet is the /24 network address of the home network.
	LocalNet packet.IP4
	// Filtering enables enforcement (the "with filtering" mode of the
	// paper's experiments). With filtering off the gateway still bridges
	// and monitors but never blocks.
	Filtering bool
	// SetupEnd tunes the setup-phase end detector; zero value selects
	// sniff.GatewayConfig().
	SetupEnd fingerprint.SetupEndConfig
	// BaseForwardCost is the modeled datapath cost of bridging one frame
	// (kernel/OVS forwarding on the Raspberry Pi). Applied in both
	// filtering modes. Zero selects 150µs.
	BaseForwardCost time.Duration
	// FlowSetupCost is the modeled controller upcall cost paid by the
	// first packet of each flow when filtering is enabled. Zero selects
	// 900µs.
	FlowSetupCost time.Duration
	// PSKSeed seeds per-device credential generation.
	PSKSeed int64

	// IdentWorkers is the number of goroutines servicing the
	// identification queue. Zero selects 2. The packet path never blocks
	// on these workers: a completed setup capture is queued, a strict
	// quarantine rule confines the device, and the real rule replaces it
	// when the asynchronous result is applied.
	IdentWorkers int
	// IdentQueue bounds the identification queue. A capture arriving
	// with the queue full fails safe: the device stays in strict
	// quarantine and the overflow is surfaced as an error Event and a
	// Notification. Zero selects 64.
	IdentQueue int
	// IdentTimeout bounds each identification round-trip to the IoT
	// Security Service; the context handed to the Identifier carries
	// this deadline. Zero selects 10s.
	IdentTimeout time.Duration
	// IdentBatch caps how many queued captures one worker drains into a
	// single streamed batch when the Identifier also implements
	// BatchIdentifier: a burst of devices joining at once (a smart-home
	// power-up) then costs one pipelined round-trip per flush instead of
	// one per capture. 1 disables batching. Zero selects 8.
	IdentBatch int
}

// withDefaults fills zero-valued knobs.
func (c Config) withDefaults() Config {
	if c.SetupEnd == (fingerprint.SetupEndConfig{}) {
		c.SetupEnd = sniff.GatewayConfig()
	}
	if c.BaseForwardCost == 0 {
		c.BaseForwardCost = 150 * time.Microsecond
	}
	if c.FlowSetupCost == 0 {
		c.FlowSetupCost = 900 * time.Microsecond
	}
	if c.IdentWorkers <= 0 {
		c.IdentWorkers = 2
	}
	if c.IdentQueue <= 0 {
		c.IdentQueue = 64
	}
	if c.IdentTimeout <= 0 {
		c.IdentTimeout = 10 * time.Second
	}
	if c.IdentBatch <= 0 {
		c.IdentBatch = 8
	}
	return c
}

// Event records one device identification handled by the gateway.
type Event struct {
	At         time.Time
	MAC        packet.MAC
	Known      bool
	DeviceType string
	Level      enforce.IsolationLevel
	Err        error
}

// Notification is a user-facing alert raised by the gateway: either a
// device whose flaws cannot be mitigated by network isolation (§III-C3 —
// the vulnerability is reachable over a channel the gateway cannot
// filter, so the user should locate and remove the device), or an
// identification failure (service error, timeout, queue overflow) that
// left a device confined in strict quarantine.
type Notification struct {
	At         time.Time
	MAC        packet.MAC
	DeviceType string
	// Channels names the uncontrollable communication channels
	// (§III-C3 alerts only).
	Channels []string
	// Err is the identification failure that triggered the alert, nil
	// for §III-C3 alerts.
	Err error
}

// String renders the alert for the gateway's management interface.
func (n Notification) String() string {
	if n.Err != nil {
		return fmt.Sprintf("SECURITY ALERT: identification of %s failed (%v); the device remains in strict quarantine",
			n.MAC, n.Err)
	}
	return fmt.Sprintf("SECURITY ALERT: %s (%s) has flaws reachable over %v, which this gateway cannot filter; please locate and remove the device",
		n.DeviceType, n.MAC, n.Channels)
}

// CPUStats is the gateway's busy-time accounting, the basis of the
// Fig. 6b CPU-utilization experiment.
type CPUStats struct {
	// Busy is the accumulated per-frame processing time: the modeled
	// forwarding cost plus the measured monitoring/lookup time.
	Busy time.Duration
	// Frames is the number of frames processed.
	Frames uint64
}

// identJob is one queued identification: a completed setup capture
// waiting for a worker.
type identJob struct {
	seq int64
	mac packet.MAC
	at  time.Time
	fp  *fingerprint.Fingerprint
}

// identDone is a finished identification waiting to be applied on the
// gateway goroutine.
type identDone struct {
	job  identJob
	resp iotssp.Response
	err  error
}

// Gateway is the Security Gateway. Drive it from a single goroutine (the
// simulation loop). The packet path never blocks on identification:
// completed setup captures are queued to a pool of identifier workers
// while the device sits behind a strict quarantine rule, and the
// asynchronous results are applied on the driving goroutine by Tick and
// Drain.
type Gateway struct {
	cfg     Config
	monitor *sniff.Monitor
	engine  *enforce.Engine
	table   *flowtable.Table
	ident   Identifier
	psk     *PSKManager

	// Events is the identification log, in apply order (queue order
	// within each Tick/Drain batch).
	Events []Event
	// Notifications collects the user alerts: devices that must be
	// removed manually (§III-C3) and identification failures that left a
	// device quarantined.
	Notifications []Notification
	// CPU accumulates datapath busy time.
	CPU CPUStats

	// busyUntil models the gateway CPU as a single server in virtual
	// time: frames arriving while a previous frame is still being
	// processed queue behind it, so latency grows gently with load
	// (Fig. 6a) and utilization is a true busy fraction (Fig. 6b).
	busyUntil time.Time

	// Identification queue state. jobs feeds the worker pool; done
	// collects finished identifications until the gateway goroutine
	// applies them. inFlight counts enqueued-but-unapplied jobs so
	// Drain knows when the pipeline is empty.
	jobs     chan identJob
	seq      int64
	workers  sync.Once
	closed   bool
	inFlight sync.WaitGroup
	pending  atomic.Int64
	doneMu   sync.Mutex
	done     []identDone
}

// New assembles a gateway.
func New(cfg Config, ident Identifier) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		monitor: sniff.NewMonitor(cfg.SetupEnd),
		engine:  enforce.NewEngine(cfg.LocalNet),
		table:   flowtable.New(flowtable.WithDefaultAction(flowtable.ActionController)),
		ident:   ident,
		psk:     NewPSKManager(cfg.PSKSeed),
		jobs:    make(chan identJob, cfg.IdentQueue),
	}
	g.monitor.IgnoreMACs[cfg.MAC] = true
	g.monitor.OnSetupComplete = g.onSetupComplete
	return g
}

// Engine exposes the enforcement engine (rule cache).
func (g *Gateway) Engine() *enforce.Engine { return g.engine }

// Table exposes the flow table.
func (g *Gateway) Table() *flowtable.Table { return g.table }

// Monitor exposes the device monitor.
func (g *Gateway) Monitor() *sniff.Monitor { return g.monitor }

// PSK exposes the credential manager.
func (g *Gateway) PSK() *PSKManager { return g.psk }

// Ignore excludes a MAC from device monitoring (infrastructure and
// measurement hosts).
func (g *Gateway) Ignore(mac packet.MAC) { g.monitor.IgnoreMACs[mac] = true }

// MarkInfrastructure declares mac an infrastructure endpoint: it is
// neither monitored as a device nor subject to overlay confinement.
func (g *Gateway) MarkInfrastructure(mac packet.MAC) {
	g.Ignore(mac)
	g.engine.SetInfrastructure(mac)
}

// onSetupComplete fingerprints a completed capture, installs a strict
// quarantine rule and hands the capture to the identifier workers. The
// packet path continues immediately; the quarantine rule is replaced
// when the asynchronous result is applied.
func (g *Gateway) onSetupComplete(c sniff.Capture) {
	fp := c.Fingerprint()
	at := c.Packets[len(c.Packets)-1].Timestamp
	if g.ident == nil {
		// No identification service configured (pure enforcement
		// testbeds): confine unknowns as strict.
		g.installRule(enforce.Rule{DeviceMAC: c.MAC, Level: enforce.Strict})
		g.Events = append(g.Events, Event{MAC: c.MAC, At: at, Level: enforce.Strict})
		return
	}

	// Quarantine until the verdict arrives: the device can complete its
	// setup against the strict overlay but reaches nothing else.
	g.installRule(enforce.Rule{DeviceMAC: c.MAC, Level: enforce.Strict})

	job := identJob{seq: g.seq, mac: c.MAC, at: at, fp: fp}
	g.seq++
	if g.closed {
		g.failJob(job, fmt.Errorf("gateway: identification queue closed"))
		return
	}
	g.workers.Do(g.startWorkers)
	g.inFlight.Add(1)
	select {
	case g.jobs <- job:
		g.pending.Add(1)
	default:
		// Queue overflow: fail safe in quarantine and tell the user
		// rather than blocking the packet path or dropping silently.
		g.inFlight.Done()
		g.failJob(job, fmt.Errorf("gateway: identification queue full (capacity %d, %d pending)", cap(g.jobs), g.pending.Load()))
	}
}

// failJob records a capture that never reached the service: an error
// Event plus a Notification, with the quarantine rule left in place.
func (g *Gateway) failJob(job identJob, err error) {
	g.Events = append(g.Events, Event{MAC: job.mac, At: job.at, Level: enforce.Strict, Err: err})
	g.Notifications = append(g.Notifications, Notification{At: job.at, MAC: job.mac, Err: err})
}

// startWorkers launches the identifier pool.
func (g *Gateway) startWorkers() {
	for i := 0; i < g.cfg.IdentWorkers; i++ {
		go g.identWorker()
	}
}

// identWorker services the identification queue. When the identifier
// supports streamed batches, each wakeup drains up to IdentBatch queued
// captures and submits them as one burst — the gateway-side half of the
// ROADMAP's "stream batches through the gateway" item (the server's
// dispatcher already batches across connections; now a burst of local
// captures arrives there as one pipelined flush too). Otherwise each
// job gets its own deadline-bounded round-trip. Outcomes are parked
// until the gateway goroutine applies them.
func (g *Gateway) identWorker() {
	batcher, streamed := g.ident.(BatchIdentifier)
	if !streamed || g.cfg.IdentBatch <= 1 {
		for job := range g.jobs {
			ctx, cancel := context.WithTimeout(context.Background(), g.cfg.IdentTimeout)
			resp, err := g.ident.Identify(ctx, job.mac.String(), job.fp)
			cancel()
			g.park(identDone{job: job, resp: resp, err: err})
			g.inFlight.Done()
		}
		return
	}
	for job := range g.jobs {
		batch := []identJob{job}
	drain:
		for len(batch) < g.cfg.IdentBatch {
			select {
			case next, more := <-g.jobs:
				if !more {
					break drain
				}
				batch = append(batch, next)
			default:
				break drain
			}
		}
		macs := make([]string, len(batch))
		fps := make([]*fingerprint.Fingerprint, len(batch))
		for i, j := range batch {
			macs[i] = j.mac.String()
			fps[i] = j.fp
		}
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.IdentTimeout)
		resps, errs := batcher.IdentifyBatch(ctx, macs, fps)
		cancel()
		for i, j := range batch {
			d := identDone{job: j}
			ok := i < len(resps) && (i >= len(errs) || errs[i] == nil)
			if ok {
				d.resp = resps[i]
			} else {
				// The entry failed inside the shared-deadline burst (or the
				// batch came back short): give it the same private deadline
				// an unbatched capture would have had, so a transient
				// outage mid-burst cannot cost verdicts the per-request
				// path would have absorbed.
				jctx, jcancel := context.WithTimeout(context.Background(), g.cfg.IdentTimeout)
				d.resp, d.err = g.ident.Identify(jctx, macs[i], fps[i])
				jcancel()
			}
			g.park(d)
			g.inFlight.Done()
		}
	}
}

// park queues a finished identification for the gateway goroutine.
func (g *Gateway) park(d identDone) {
	g.doneMu.Lock()
	g.done = append(g.done, d)
	g.doneMu.Unlock()
}

// applyCompleted installs the results of finished identifications. It
// runs on the gateway goroutine (from Tick or Drain), so rule and event
// state stay single-writer. Results are applied in queue order within
// each batch to keep simulations deterministic.
func (g *Gateway) applyCompleted() {
	g.doneMu.Lock()
	batch := g.done
	g.done = nil
	g.doneMu.Unlock()
	if len(batch) == 0 {
		return
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].job.seq < batch[j].job.seq })
	for _, d := range batch {
		g.applyResult(d)
		g.pending.Add(-1)
	}
}

// applyResult turns one identification outcome into enforcement state.
func (g *Gateway) applyResult(d identDone) {
	if d.err != nil {
		// Fail safe: unreachable or timed-out service means the
		// quarantine rule stays, and the user hears about it.
		g.failJob(d.job, d.err)
		return
	}
	ev := Event{MAC: d.job.mac, At: d.job.at}
	resp := d.resp
	level, err := iotssp.ParseLevel(resp.Level)
	if err != nil {
		level = enforce.Strict
	}
	ev.Known = resp.Known
	ev.DeviceType = resp.DeviceType
	ev.Level = level

	rule := enforce.Rule{DeviceMAC: d.job.mac, DeviceType: resp.DeviceType, Level: level}
	for _, ep := range resp.PermittedEndpoints {
		ip, perr := packet.ParseIP4(ep)
		if perr != nil {
			continue
		}
		rule.PermittedIPs = append(rule.PermittedIPs, ip)
	}
	g.installRule(rule)
	g.psk.Issue(d.job.mac)
	g.Events = append(g.Events, ev)
	if resp.NotifyUser {
		g.Notifications = append(g.Notifications, Notification{
			At:         ev.At,
			MAC:        d.job.mac,
			DeviceType: resp.DeviceType,
			Channels:   append([]string(nil), resp.UncontrolledChannels...),
		})
	}
}

// Drain blocks until every queued identification has completed, then
// applies the results. Call it at simulation barriers (end of a replay,
// before asserting on Events) where the asynchronous pipeline must be
// empty.
func (g *Gateway) Drain() {
	g.inFlight.Wait()
	g.applyCompleted()
}

// Pending returns the number of identifications enqueued or running
// whose results have not been applied yet.
func (g *Gateway) Pending() int {
	return int(g.pending.Load())
}

// Close stops the identifier workers. Captures completing afterwards
// fail safe into quarantine. Close does not wait for in-flight work;
// call Drain first to apply it.
func (g *Gateway) Close() {
	if g.closed {
		return
	}
	g.closed = true
	close(g.jobs)
}

// installRule stores the enforcement rule and brings the flow table in
// line with it, touching only the entries that name the device: the ones
// compiled for the rule it replaces, and the pair entries its overlay
// peers hold for it. The device is compiled once against its current
// peers, each of those peers gains its pair entries for the device, and
// the table takes the lot as one batch. Afterwards the table holds
// exactly the entries a compile of every rule against its peers yields,
// given that every rule reached the engine through here; a rule set on
// the engine directly has no entries of its own and is enforced by the
// controller path alone.
func (g *Gateway) installRule(r enforce.Rule) {
	old, hadOld := g.engine.RuleFor(r.DeviceMAC)
	if err := g.engine.SetRule(r); err != nil {
		// Rejected rule: leave the engine and flow table exactly as they
		// were, still consistent with each other.
		return
	}
	mac := r.DeviceMAC
	peers := g.engine.OverlayPeers(r.Level, mac)
	add := enforce.CompileFlowRules(r, peers, g.cfg.MAC, g.cfg.IP)
	for _, peer := range peers {
		if pr, ok := g.engine.RuleFor(peer); ok {
			pair := enforce.PairRules(peer, mac, pr.Hash())
			add = append(add, pair[:]...)
		}
	}
	// A device without a rule has no entries and no peer holds a pair
	// for it, so a first install drops nothing.
	var drop func(*flowtable.Rule) bool
	if hadOld {
		cookie := old.Hash()
		drop = func(fr *flowtable.Rule) bool { return fr.Cookie == cookie || enforce.IsPairWith(fr, mac) }
	}
	g.table.Update(drop, add)
}

// Bridge returns the netsim bridge function implementing the gateway
// datapath.
func (g *Gateway) Bridge() netsim.BridgeFunc {
	return func(now time.Time, src *netsim.Host, p *packet.Packet) (bool, time.Duration) {
		t0 := time.Now()

		// Monitoring: track new devices' setup phases.
		g.monitor.Observe(p)

		deliver := true
		var procDelay time.Duration
		if g.cfg.Filtering {
			key := flowtable.KeyOf(p)
			action := g.table.LookupAt(key, now)
			if action == flowtable.ActionController {
				// First packet of an unclassified flow: the controller
				// module decides, installs the microflow, and the packet
				// pays the upcall cost.
				verdict := g.engine.DecidePacket(p)
				if verdict.Allow {
					action = flowtable.ActionForward
				} else {
					action = flowtable.ActionDrop
				}
				g.table.InsertCache(key, action, 0)
				procDelay += g.cfg.FlowSetupCost
			}
			deliver = action == flowtable.ActionForward
		}

		measured := time.Since(t0)
		serviceTime := procDelay + measured + g.cfg.BaseForwardCost
		g.CPU.Busy += serviceTime
		g.CPU.Frames++

		// Single-server queueing: wait for the datapath to drain, then
		// occupy it for this frame's service time.
		var waiting time.Duration
		if g.busyUntil.After(now) {
			waiting = g.busyUntil.Sub(now)
			g.busyUntil = g.busyUntil.Add(serviceTime)
		} else {
			g.busyUntil = now.Add(serviceTime)
		}
		return deliver, waiting + serviceTime
	}
}

// Tick lets the gateway finish captures for devices that have gone
// silent and applies identification results that arrived since the last
// call; call it periodically from the simulation.
func (g *Gateway) Tick(now time.Time) {
	g.monitor.Tick(now)
	g.applyCompleted()
}

// Utilization converts busy time over an elapsed window into a CPU
// percentage on top of a baseline (the Pi's OS + controller idle load).
func (c CPUStats) Utilization(elapsed time.Duration, baselinePct float64) float64 {
	if elapsed <= 0 {
		return baselinePct
	}
	return baselinePct + 100*float64(c.Busy)/float64(elapsed)
}
