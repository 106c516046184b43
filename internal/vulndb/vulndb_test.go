package vulndb

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/devices"
	"repro/internal/enforce"
)

func TestAssessUnknownType(t *testing.T) {
	db := New()
	a := db.Assess("MysteryDevice")
	if a.Known {
		t.Error("unknown type reported known")
	}
	if got := a.Level(); got != enforce.Strict {
		t.Errorf("Level = %v, want strict", got)
	}
}

func TestAssessCleanType(t *testing.T) {
	db := New()
	db.AddType("HueBridge")
	a := db.Assess("HueBridge")
	if !a.Known || a.Vulnerable() {
		t.Errorf("clean type assessment wrong: %+v", a)
	}
	if got := a.Level(); got != enforce.Trusted {
		t.Errorf("Level = %v, want trusted", got)
	}
}

func TestAssessVulnerableType(t *testing.T) {
	db := New()
	db.Add("EdimaxCam", Vulnerability{ID: "CVE-X", Summary: "s", CVSS: 8, Year: 2015})
	a := db.Assess("EdimaxCam")
	if !a.Known || !a.Vulnerable() {
		t.Errorf("vulnerable type assessment wrong: %+v", a)
	}
	if got := a.Level(); got != enforce.Restricted {
		t.Errorf("Level = %v, want restricted", got)
	}
	if len(a.Vulns) != 1 || a.Vulns[0].ID != "CVE-X" {
		t.Errorf("Vulns = %+v", a.Vulns)
	}
}

func TestAssessmentCopyIsolated(t *testing.T) {
	db := New()
	db.Add("X", Vulnerability{ID: "A"})
	a := db.Assess("X")
	a.Vulns[0].ID = "MUTATED"
	if db.Assess("X").Vulns[0].ID != "A" {
		t.Error("Assess leaked internal state")
	}
}

func TestSeededCoversCatalog(t *testing.T) {
	db := Seeded()
	for _, name := range devices.Names() {
		a := db.Assess(name)
		if !a.Known {
			t.Errorf("%s not in the seeded repository", name)
		}
	}
	// The paper's three-level scheme needs all levels represented.
	levels := map[enforce.IsolationLevel]int{}
	for _, name := range devices.Names() {
		levels[db.Assess(name).Level()]++
	}
	if levels[enforce.Trusted] == 0 || levels[enforce.Restricted] == 0 {
		t.Errorf("seeded repository lacks level diversity: %v", levels)
	}
	// Sibling devices share platform vulnerabilities.
	for _, group := range devices.ConfusionGroups() {
		base := db.Assess(group[0]).Vulnerable()
		for _, member := range group[1:] {
			if db.Assess(member).Vulnerable() != base {
				t.Errorf("group %v members disagree on vulnerability", group)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := Seeded()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("loaded %d types, want %d", loaded.Len(), db.Len())
	}
	for _, typ := range db.Types() {
		a, b := db.Assess(typ), loaded.Assess(typ)
		if a.Known != b.Known || len(a.Vulns) != len(b.Vulns) {
			t.Errorf("%s assessment changed across save/load", typ)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("Load accepted garbage")
	}
}

func TestTypesSorted(t *testing.T) {
	db := New()
	db.AddType("zeta")
	db.AddType("alpha")
	db.AddType("mid")
	got := db.Types()
	if got[0] != "alpha" || got[2] != "zeta" {
		t.Errorf("Types() = %v, want sorted", got)
	}
}

func TestRequiresUserNotification(t *testing.T) {
	db := New()
	db.Add("PlainCam", Vulnerability{ID: "A", Summary: "network flaw"})
	db.Add("RadioHub", Vulnerability{ID: "B", Summary: "radio flaw", UncontrolledChannel: "bluetooth"})
	db.Add("RadioHub", Vulnerability{ID: "C", Summary: "another radio flaw", UncontrolledChannel: "lte"})

	if notify, _ := db.Assess("PlainCam").RequiresUserNotification(); notify {
		t.Error("network-only flaws should not require user notification")
	}
	notify, channels := db.Assess("RadioHub").RequiresUserNotification()
	if !notify {
		t.Fatal("uncontrolled-channel flaw did not require notification")
	}
	if len(channels) != 2 {
		t.Errorf("channels = %v, want 2 entries", channels)
	}
}

func TestSeededHasUserNotificationCase(t *testing.T) {
	db := Seeded()
	found := false
	for _, typ := range db.Types() {
		if notify, _ := db.Assess(typ).RequiresUserNotification(); notify {
			found = true
		}
	}
	if !found {
		t.Error("seeded repository has no §III-C3 user-notification case")
	}
}

// TestVerdictMatchesAssessment: the kept verdict digest agrees with a
// fresh Assess for every seeded type and an unknown one, follows an
// advisory added later (without touching a digest already handed out),
// and a nil repository levels everything strict.
func TestVerdictMatchesAssessment(t *testing.T) {
	db := Seeded()
	check := func(typ string) {
		t.Helper()
		a := db.Assess(typ)
		v := db.Verdict(typ)
		var ids []string
		for _, vuln := range a.Vulns {
			ids = append(ids, vuln.ID)
		}
		_, channels := a.RequiresUserNotification()
		if v.Level != a.Level() || !reflect.DeepEqual(v.IDs, ids) || !reflect.DeepEqual(v.Channels, channels) {
			t.Errorf("%s: verdict %+v, assessment gives level %v, ids %v, channels %v", typ, v, a.Level(), ids, channels)
		}
	}
	for _, typ := range append(db.Types(), "MysteryDevice") {
		check(typ)
	}

	before := db.Verdict("HueBridge")
	db.Add("HueBridge", Vulnerability{ID: "IOTDB-TEST-1", UncontrolledChannel: "zigbee"})
	check("HueBridge")
	if after := db.Verdict("HueBridge"); after.Level != enforce.Restricted {
		t.Errorf("HueBridge after an advisory: %+v, want restricted", after)
	}
	if before.Level != enforce.Trusted || before.IDs != nil {
		t.Errorf("a digest handed out before the advisory changed: %+v", before)
	}

	var none *DB
	if v := none.Verdict("HueBridge"); v.Level != enforce.Strict {
		t.Errorf("nil repository: %+v, want strict", v)
	}
}

// TestSaveBesideWriter runs Save while a writer keeps registering
// types. Save must snapshot the repository under the one read lock it
// takes: a second read lock taken inside it would deadlock against a
// writer queued between the two.
func TestSaveBesideWriter(t *testing.T) {
	db := Seeded()
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				db.AddType(fmt.Sprintf("type-%d", i%64))
			}
		}
	}()
	saved := make(chan error, 1)
	go func() {
		for i := 0; i < 2000; i++ {
			if err := db.Save(io.Discard); err != nil {
				saved <- err
				return
			}
		}
		saved <- nil
	}()
	select {
	case err := <-saved:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Save deadlocked beside a writer")
	}
	close(stop)
	<-writerDone
}
