// Package vulndb is the vulnerability-assessment substrate of the IoT
// Security Service (paper §III-B): a CVE-style repository queried by
// device-type. The paper consults the public CVE database; this package
// embeds an equivalent repository keyed by the Table II device-types,
// seeded with the vulnerability classes the referenced advisories
// describe (hardcoded credentials, unauthenticated endpoints, cleartext
// protocols). The mapping from assessment to isolation level follows the
// paper exactly: vulnerable types get `restricted`, clean types
// `trusted`, unknown types `strict`.
package vulndb

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/enforce"
)

// Vulnerability is one CVE-like advisory entry.
type Vulnerability struct {
	// ID is the advisory identifier (CVE-style).
	ID string `json:"id"`
	// Summary describes the flaw.
	Summary string `json:"summary"`
	// CVSS is the severity score on [0,10].
	CVSS float64 `json:"cvss"`
	// Year is the publication year.
	Year int `json:"year"`
	// UncontrolledChannel names a communication channel the flaw is
	// reachable over that the Security Gateway cannot filter (Bluetooth,
	// an LTE modem, a proprietary radio). Network isolation cannot
	// protect against such flaws; the system must fall back to user
	// notification (§III-C3).
	UncontrolledChannel string `json:"uncontrolled_channel,omitempty"`
}

// Assessment is the result of assessing one device-type.
type Assessment struct {
	DeviceType string          `json:"device_type"`
	Known      bool            `json:"known"`
	Vulns      []Vulnerability `json:"vulns,omitempty"`
}

// Vulnerable reports whether any advisory exists for the type.
func (a Assessment) Vulnerable() bool { return len(a.Vulns) > 0 }

// RequiresUserNotification reports whether any advisory is reachable
// over a channel the gateway cannot filter, so isolation and traffic
// filtering are insufficient and the user must be told to remove the
// device (§III-C3). It returns the offending channels.
func (a Assessment) RequiresUserNotification() (bool, []string) {
	var channels []string
	for _, v := range a.Vulns {
		if v.UncontrolledChannel != "" {
			channels = append(channels, v.UncontrolledChannel)
		}
	}
	return len(channels) > 0, channels
}

// Level maps the assessment to the isolation level of §III-B:
// unknown → strict, vulnerable → restricted, clean → trusted.
func (a Assessment) Level() enforce.IsolationLevel {
	switch {
	case !a.Known:
		return enforce.Strict
	case a.Vulnerable():
		return enforce.Restricted
	default:
		return enforce.Trusted
	}
}

// Verdict is the part of an assessment a verdict carries: the
// isolation level, the advisory IDs and the channels that require user
// notification (RequiresUserNotification's). The repository keeps one
// per known type, rebuilt whenever the type's advisories change, so
// reading it copies nothing: its slices are shared and must be treated
// as immutable.
type Verdict struct {
	Level    enforce.IsolationLevel
	IDs      []string
	Channels []string
}

// DB is a vulnerability repository keyed by device-type. Safe for
// concurrent use.
type DB struct {
	mu       sync.RWMutex
	entries  map[string][]Vulnerability
	known    map[string]bool
	verdicts map[string]Verdict
}

// New returns an empty repository.
func New() *DB {
	return &DB{
		entries:  make(map[string][]Vulnerability),
		known:    make(map[string]bool),
		verdicts: make(map[string]Verdict),
	}
}

// AddType registers a device-type as known (possibly with no advisories).
func (db *DB) AddType(deviceType string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.known[deviceType] {
		db.known[deviceType] = true
		db.verdicts[deviceType] = Verdict{Level: enforce.Trusted}
	}
}

// Add records an advisory for a device-type, registering the type.
func (db *DB) Add(deviceType string, v Vulnerability) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.known[deviceType] = true
	vulns := append(db.entries[deviceType], v)
	db.entries[deviceType] = vulns
	// Build fresh slices: readers may hold the previous verdict's.
	a := Assessment{DeviceType: deviceType, Known: true, Vulns: vulns}
	verdict := Verdict{Level: a.Level(), IDs: make([]string, len(vulns))}
	for i, v := range vulns {
		verdict.IDs[i] = v.ID
	}
	_, verdict.Channels = a.RequiresUserNotification()
	db.verdicts[deviceType] = verdict
}

// Verdict returns the type's verdict digest without copying it: strict
// for a type the repository does not know, and for every type when db
// is nil (serving without a repository).
func (db *DB) Verdict(deviceType string) Verdict {
	if db == nil {
		return Verdict{Level: enforce.Strict}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if v, ok := db.verdicts[deviceType]; ok {
		return v
	}
	return Verdict{Level: enforce.Strict}
}

// Assess looks up the advisories for a device-type.
func (db *DB) Assess(deviceType string) Assessment {
	db.mu.RLock()
	defer db.mu.RUnlock()
	a := Assessment{DeviceType: deviceType, Known: db.known[deviceType]}
	if vulns, ok := db.entries[deviceType]; ok {
		a.Vulns = append([]Vulnerability(nil), vulns...)
	}
	return a
}

// Types returns the known device-types, sorted.
func (db *DB) Types() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.known))
	for t := range db.known {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of known device-types.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.known)
}

// dump is the JSON wire form of the repository.
type dump struct {
	Types   []string                   `json:"types"`
	Entries map[string][]Vulnerability `json:"entries"`
}

// Save writes the repository as JSON.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	d := dump{Types: db.Types(), Entries: make(map[string][]Vulnerability, len(db.entries))}
	for t, vs := range db.entries {
		d.Entries[t] = append([]Vulnerability(nil), vs...)
	}
	db.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("vulndb: encoding repository: %w", err)
	}
	return nil
}

// Load reads a JSON repository written by Save.
func Load(r io.Reader) (*DB, error) {
	var d dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("vulndb: decoding repository: %w", err)
	}
	db := New()
	for _, t := range d.Types {
		db.AddType(t)
	}
	for t, vs := range d.Entries {
		for _, v := range vs {
			db.Add(t, v)
		}
	}
	return db, nil
}

// Seeded returns the repository used by the evaluation: all 27 Table II
// device-types registered, with advisories for the types whose product
// families had published flaws in the paper's timeframe (device classes
// with hardcoded credentials, unauthenticated local APIs, or cleartext
// cloud protocols).
func Seeded() *DB {
	db := New()
	clean := []string{
		"Aria", "Withings", "HueBridge", "HueSwitch", "Lightify",
		"WeMoLink", "D-LinkHomeHub", "D-LinkDoorSensor",
		"HomeMaticPlug", "MAXGateway",
	}
	for _, t := range clean {
		db.AddType(t)
	}

	add := func(t, id, summary string, cvss float64, year int) {
		db.Add(t, Vulnerability{ID: id, Summary: summary, CVSS: cvss, Year: year})
	}
	add("EdimaxCam", "IOTDB-2015-0101", "unauthenticated video stream and hardcoded admin credentials", 8.3, 2015)
	add("EdimaxPlug1101W", "IOTDB-2015-0102", "cleartext cloud relay protocol allows remote switching", 7.1, 2015)
	add("EdimaxPlug2101W", "IOTDB-2015-0102", "cleartext cloud relay protocol allows remote switching", 7.1, 2015)
	add("EdnetCam", "IOTDB-2015-0110", "default credentials and unauthenticated RTSP endpoint", 8.0, 2015)
	add("EdnetGateway", "IOTDB-2016-0111", "unauthenticated local configuration broadcast", 6.4, 2016)
	// A flaw reachable over the gateway's proprietary RF link to its
	// power sockets: network-side filtering cannot reach it, so the user
	// must be notified to remove the device (§III-C3).
	db.Add("EdnetGateway", Vulnerability{
		ID:                  "IOTDB-2016-0112",
		Summary:             "unauthenticated pairing over the socket radio link",
		CVSS:                7.2,
		Year:                2016,
		UncontrolledChannel: "proprietary 868 MHz radio",
	})
	add("D-LinkCam", "IOTDB-2016-0120", "command injection in cloud signalling service", 9.1, 2016)
	add("D-LinkDayCam", "IOTDB-2016-0121", "authentication bypass in HTTP admin interface", 8.8, 2016)
	add("D-LinkSwitch", "IOTDB-2016-0122", "unauthenticated HNAP actions on DCH platform", 7.5, 2016)
	add("D-LinkWaterSensor", "IOTDB-2016-0122", "unauthenticated HNAP actions on DCH platform", 7.5, 2016)
	add("D-LinkSiren", "IOTDB-2016-0122", "unauthenticated HNAP actions on DCH platform", 7.5, 2016)
	add("D-LinkSensor", "IOTDB-2016-0122", "unauthenticated HNAP actions on DCH platform", 7.5, 2016)
	add("TP-LinkPlugHS110", "IOTDB-2016-0130", "unauthenticated local control protocol on port 9999", 6.8, 2016)
	add("TP-LinkPlugHS100", "IOTDB-2016-0130", "unauthenticated local control protocol on port 9999", 6.8, 2016)
	add("SmarterCoffee", "IOTDB-2015-0140", "unauthenticated local protocol leaks WiFi credentials", 8.5, 2015)
	add("iKettle2", "IOTDB-2015-0141", "unauthenticated local protocol leaks WiFi credentials", 8.5, 2015)
	add("WeMoSwitch", "IOTDB-2014-0150", "signature bypass in firmware update channel", 7.9, 2014)
	add("WeMoInsightSwitch", "IOTDB-2014-0150", "signature bypass in firmware update channel", 7.9, 2014)
	return db
}
