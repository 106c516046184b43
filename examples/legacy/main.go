// Legacy: the §VIII-A scenario — IoT Sentinel is retrofitted onto an
// existing network whose devices were installed long ago. There are no
// setup phases to observe, so identification works from standby-phase
// traffic (heartbeats, keepalives), and devices are migrated between
// overlays with WPS re-keying: trusted WPS-capable devices get fresh
// device-specific PSKs, devices without WPS stay in the untrusted
// overlay pending manual re-introduction, and vulnerable devices remain
// confined.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/ml"
	"repro/internal/packet"
	"repro/internal/vulndb"
)

func main() {
	log.SetFlags(0)
	env := devices.DefaultEnv()

	// Train the IoTSSP bank on STANDBY traffic: the working hypothesis of
	// §VIII-A is that keepalive patterns are as type-characteristic as
	// setup bursts.
	fmt.Println("training classifier bank on standby-phase fingerprints…")
	train := make(map[string][]*fingerprint.Fingerprint, devices.Count())
	for _, name := range devices.Names() {
		p, err := devices.Lookup(name)
		if err != nil {
			log.Fatal(err)
		}
		var prints []*fingerprint.Fingerprint
		for run := 0; run < 10; run++ {
			tr := p.GenerateStandby(env, 1, run, 30)
			prints = append(prints, tr.Fingerprint())
		}
		train[name] = prints
	}
	bank, err := core.Train(core.BankConfig{Forest: ml.ForestConfig{Trees: 50}, Seed: 7}, train)
	if err != nil {
		log.Fatal(err)
	}
	svc := iotssp.NewService(bank, iotssp.ServiceConfig{DB: vulndb.Seeded()})

	gw := gateway.New(gateway.GatewayConfig{
		MAC:       packet.MustParseMAC("02:53:47:57:00:01"),
		IP:        packet.MustParseIP4("192.168.1.1"),
		LocalNet:  packet.MustParseIP4("192.168.1.0"),
		Filtering: true,
		PSKSeed:   23,
	}, gateway.LocalService{Svc: svc})

	// The legacy installation: four devices already on the network. The
	// gateway update observes their standby traffic for a while.
	fmt.Println("collecting standby captures from the legacy installation…")
	legacy := []struct {
		name        string
		supportsWPS bool
	}{
		{"Aria", true},          // clean, WPS-capable
		{"HueBridge", false},    // clean, but no WPS re-keying
		{"D-LinkCam", true},     // vulnerable
		{"SmarterCoffee", true}, // vulnerable
	}
	var migrate []gateway.LegacyDevice
	for i, d := range legacy {
		p, err := devices.Lookup(d.name)
		if err != nil {
			log.Fatal(err)
		}
		tr := p.GenerateStandby(env, int64(100+i), 0, 30)
		migrate = append(migrate, gateway.LegacyDevice{
			MAC:            p.MAC,
			StandbyCapture: tr.Packets,
			SupportsWPS:    d.supportsWPS,
		})
	}

	fmt.Println("\ndeprecating the network-wide WPA2 PSK and migrating…")
	outcomes := gw.MigrateLegacy(migrate)
	for _, o := range outcomes {
		fmt.Println(" ", o)
	}

	fmt.Println("\nfinal enforcement state:")
	for _, r := range gw.Engine().Rules() {
		fmt.Printf("  %s %-14s level=%s\n", r.DeviceMAC, r.DeviceType, r.Level)
	}
	if _, valid := gw.PSK().NetworkPSK(); !valid {
		fmt.Println("\nlegacy network PSK is deprecated; re-keyed devices hold device-specific PSKs")
	}

	// Verify the service response detail for one migrated device.
	p, err := devices.Lookup("D-LinkCam")
	if err != nil {
		log.Fatal(err)
	}
	tr := p.GenerateStandby(env, 555, 0, 30)
	resp := svc.Identify(p.MAC.String(), tr.Fingerprint())
	fmt.Printf("\nIoTSSP verdict for the camera's standby traffic: type=%s level=%s advisories=%v\n",
		resp.DeviceType, resp.Level, resp.Vulnerabilities)
}
