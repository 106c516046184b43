package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/ml"
)

// synthVector builds a feature vector keyed by a protocol tag and size,
// loosely imitating real extracted vectors.
func synthVector(proto int, size, dst int32) features.Vector {
	var v features.Vector
	v[features.IP] = 1
	switch proto % 4 {
	case 0:
		v[features.UDP] = 1
		v[features.DNS] = 1
		v[features.SrcPortClass] = 2
		v[features.DstPortClass] = 1
	case 1:
		v[features.TCP] = 1
		v[features.HTTPS] = 1
		v[features.SrcPortClass] = 3
		v[features.DstPortClass] = 1
	case 2:
		v[features.UDP] = 1
		v[features.SSDP] = 1
		v[features.SrcPortClass] = 3
		v[features.DstPortClass] = 2
	case 3:
		v[features.TCP] = 1
		v[features.HTTP] = 1
		v[features.RawData] = 1
		v[features.SrcPortClass] = 3
		v[features.DstPortClass] = 1
	}
	v[features.Size] = size
	v[features.DstIPCounter] = dst
	return v
}

// synthType generates n fingerprints of a synthetic device-type. The
// type's identity is a base packet script derived from typeSeed; each
// fingerprint gets per-run jitter (occasional repeats and small size
// changes on a subset of packets).
func synthType(typeSeed int64, n int, rng *rand.Rand) []*fingerprint.Fingerprint {
	base := rand.New(rand.NewSource(typeSeed))
	scriptLen := 14 + base.Intn(6)
	protos := make([]int, scriptLen)
	sizes := make([]int32, scriptLen)
	dsts := make([]int32, scriptLen)
	for i := range protos {
		protos[i] = base.Intn(4)
		sizes[i] = 60 + int32(base.Intn(40))*10
		dsts[i] = int32(1 + base.Intn(3))
	}

	prints := make([]*fingerprint.Fingerprint, n)
	for run := 0; run < n; run++ {
		var vs []features.Vector
		for i := range protos {
			v := synthVector(protos[i], sizes[i], dsts[i])
			vs = append(vs, v)
			if rng.Float64() < 0.2 { // retransmission
				vs = append(vs, v)
			}
		}
		// Occasional extra trailing packet.
		if rng.Float64() < 0.3 {
			vs = append(vs, synthVector(0, 300, 1))
		}
		prints[run] = fingerprint.FromVectors(vs)
	}
	return prints
}

// smallConfig keeps tests fast.
func smallConfig() Config {
	cfg := Default()
	cfg.Forest = ml.ForestConfig{Trees: 25}
	cfg.Seed = 1
	return cfg
}

func trainedBank(t *testing.T, seeds map[string]int64, perType int) (*Bank, map[string][]*fingerprint.Fingerprint) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	train := make(map[string][]*fingerprint.Fingerprint, len(seeds))
	test := make(map[string][]*fingerprint.Fingerprint, len(seeds))
	for name, seed := range seeds {
		all := synthType(seed, perType+5, rng)
		train[name] = all[:perType]
		test[name] = all[perType:]
	}
	b, err := Train(smallConfig(), train)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return b, test
}

func TestIdentifyDistinctTypes(t *testing.T) {
	seeds := map[string]int64{"camA": 100, "plugB": 200, "hubC": 300}
	b, test := trainedBank(t, seeds, 15)
	if b.Len() != 3 {
		t.Fatalf("bank size = %d, want 3", b.Len())
	}
	for name, prints := range test {
		for i, f := range prints {
			res := b.Identify(f)
			if !res.Known {
				t.Errorf("%s[%d]: rejected by all classifiers", name, i)
				continue
			}
			if res.Type != name {
				t.Errorf("%s[%d]: identified as %s (stage %s)", name, i, res.Type, res.Stage)
			}
		}
	}
}

func TestUnknownTypeRejectedByAll(t *testing.T) {
	// A richer bank (6 types) gives each classifier a diverse negative
	// pool, as in the paper's 27-type setting.
	seeds := map[string]int64{
		"camA": 100, "plugB": 200, "hubC": 300,
		"scaleD": 400, "bulbE": 600, "sirenF": 700,
	}
	b, _ := trainedBank(t, seeds, 15)
	// The probe device speaks a protocol mix no training type uses
	// (EAPoL + NTP-heavy with unusual sizes and many destinations).
	var vs []features.Vector
	for i := int32(0); i < 16; i++ {
		var v features.Vector
		v[features.EAPoL] = i % 2
		v[features.IP] = 1 - i%2
		v[features.UDP] = 1 - i%2
		v[features.NTP] = 1 - i%2
		v[features.Size] = 777 + 13*i
		v[features.DstIPCounter] = 1 + i%7
		v[features.SrcPortClass] = 1
		v[features.DstPortClass] = 1
		vs = append(vs, v)
	}
	res := b.IdentifyVectors(vs)
	if res.Known {
		t.Errorf("out-of-distribution fingerprint identified as %s (accepted %v)", res.Type, res.Accepted)
	}
	if res.Stage != StageNone || res.Type != "" {
		t.Errorf("unknown result inconsistent: %+v", res)
	}
}

func TestDiscriminationBetweenIdenticalTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Two "types" drawn from the same generator: classifiers cannot
	// separate them, so discrimination must run.
	train := map[string][]*fingerprint.Fingerprint{
		"twin1": synthType(500, 15, rng),
		"twin2": synthType(500, 15, rng),
		"other": synthType(42, 15, rng),
	}
	b, err := Train(smallConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	probe := synthType(500, 10, rng)
	discriminated := 0
	for _, f := range probe {
		res := b.Identify(f)
		if !res.Known {
			continue
		}
		if res.Stage == StageDiscrimination {
			discriminated++
			if len(res.Accepted) < 2 {
				t.Errorf("discrimination ran with %d accepts", len(res.Accepted))
			}
			if len(res.Scores) != len(res.Accepted) {
				t.Errorf("scores for %d types, accepted %d", len(res.Scores), len(res.Accepted))
			}
			for typ, s := range res.Scores {
				if s < 0 || s > 5 {
					t.Errorf("score s_%s = %v outside [0,5]", typ, s)
				}
			}
			if res.Type != "twin1" && res.Type != "twin2" {
				t.Errorf("twin probe identified as %s", res.Type)
			}
		}
	}
	if discriminated == 0 {
		t.Error("no probe triggered the discrimination stage")
	}
}

func TestStageClassificationSingleAccept(t *testing.T) {
	seeds := map[string]int64{"camA": 100, "plugB": 200, "hubC": 300}
	b, test := trainedBank(t, seeds, 15)
	sawSingle := false
	for name, prints := range test {
		for _, f := range prints {
			res := b.Identify(f)
			if res.Known && len(res.Accepted) == 1 {
				sawSingle = true
				if res.Stage != StageClassification {
					t.Errorf("%s: single accept but stage %s", name, res.Stage)
				}
				if res.Scores != nil {
					t.Errorf("%s: scores computed without discrimination", name)
				}
			}
		}
	}
	if !sawSingle {
		t.Error("no fingerprint was accepted by exactly one classifier")
	}
}

func TestEnrollDoesNotChangeExistingClassifiers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	train := map[string][]*fingerprint.Fingerprint{
		"camA":  synthType(100, 15, rng),
		"plugB": synthType(200, 15, rng),
	}
	b, err := Train(smallConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	probes := synthType(100, 5, rng)
	before := make([][]string, len(probes))
	for i, f := range probes {
		before[i] = b.Classify(f.Fixed())
	}

	if err := b.Enroll("hubC", synthType(300, 15, rng)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("bank size after enroll = %d", b.Len())
	}
	for i, f := range probes {
		after := b.Classify(f.Fixed())
		// Existing classifiers must produce identical votes; only the new
		// type may append to the accept set.
		j := 0
		for _, typ := range after {
			if typ == "hubC" {
				continue
			}
			if j >= len(before[i]) || before[i][j] != typ {
				t.Errorf("probe %d: pre-existing votes changed: before=%v after=%v", i, before[i], after)
				break
			}
			j++
		}
		if j != len(before[i]) {
			t.Errorf("probe %d: vote set shrank: before=%v after=%v", i, before[i], after)
		}
	}
}

func TestEnrollNewTypeIdentifiable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	train := map[string][]*fingerprint.Fingerprint{
		"camA":  synthType(100, 15, rng),
		"plugB": synthType(200, 15, rng),
	}
	b, err := Train(smallConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Enroll("hubC", synthType(300, 15, rng)); err != nil {
		t.Fatal(err)
	}
	correct := 0
	probes := synthType(300, 5, rng)
	for _, f := range probes {
		if res := b.Identify(f); res.Known && res.Type == "hubC" {
			correct++
		}
	}
	if correct < 4 {
		t.Errorf("enrolled type identified %d/5, want >= 4", correct)
	}
}

func TestEnrollErrors(t *testing.T) {
	b := NewBank(smallConfig())
	if err := b.Enroll("x", nil); err == nil {
		t.Error("empty enrolment accepted")
	}
	rng := rand.New(rand.NewSource(17))
	if err := b.Enroll("x", synthType(1, 5, rng)); err != nil {
		t.Fatal(err)
	}
	if err := b.Enroll("x", synthType(2, 5, rng)); err == nil {
		t.Error("duplicate enrolment accepted")
	}
}

func TestTrainDeterminism(t *testing.T) {
	rng1 := rand.New(rand.NewSource(19))
	rng2 := rand.New(rand.NewSource(19))
	train1 := map[string][]*fingerprint.Fingerprint{
		"a": synthType(100, 10, rng1), "b": synthType(200, 10, rng1),
	}
	train2 := map[string][]*fingerprint.Fingerprint{
		"a": synthType(100, 10, rng2), "b": synthType(200, 10, rng2),
	}
	b1, err := Train(smallConfig(), train1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Train(smallConfig(), train2)
	if err != nil {
		t.Fatal(err)
	}
	probes := synthType(100, 10, rand.New(rand.NewSource(21)))
	for i, f := range probes {
		r1 := b1.Identify(f)
		r2 := b2.Identify(f)
		if r1.Known != r2.Known || r1.Type != r2.Type {
			t.Errorf("probe %d: determinism broken: %+v vs %+v", i, r1, r2)
		}
	}
}

func TestTypesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	train := map[string][]*fingerprint.Fingerprint{
		"zeta": synthType(1, 5, rng), "alpha": synthType(2, 5, rng), "mid": synthType(3, 5, rng),
	}
	b, err := Train(smallConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	got := b.Types()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Types() = %v, want %v", got, want)
		}
	}
}

func TestDistanceComputations(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	train := map[string][]*fingerprint.Fingerprint{
		"a": synthType(1, 15, rng),
		"b": synthType(2, 3, rng), // fewer prints than DiscriminationRefs
	}
	b, err := Train(smallConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.DistanceComputations([]string{"a", "b"}); got != 5+3 {
		t.Errorf("DistanceComputations = %d, want 8", got)
	}
	if got := b.DistanceComputations([]string{"a"}); got != 5 {
		t.Errorf("DistanceComputations = %d, want 5", got)
	}
}

func TestStageString(t *testing.T) {
	if StageNone.String() != "none" ||
		StageClassification.String() != "classification" ||
		StageDiscrimination.String() != "discrimination" {
		t.Error("Stage.String() names wrong")
	}
}

func TestIdentifyVectors(t *testing.T) {
	seeds := map[string]int64{"camA": 100, "plugB": 200, "hubC": 300}
	b, test := trainedBank(t, seeds, 15)
	f := test["camA"][0]
	r1 := b.Identify(f)
	r2 := b.IdentifyVectors(f.Vectors())
	if r1.Known != r2.Known || r1.Type != r2.Type {
		t.Errorf("IdentifyVectors disagrees with Identify: %+v vs %+v", r1, r2)
	}
}

func TestBankVersionTracksEnrolments(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	train := map[string][]*fingerprint.Fingerprint{
		"camA":  synthType(100, 10, rng),
		"plugB": synthType(200, 10, rng),
	}
	b, err := Train(smallConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Version(); got != 2 {
		t.Fatalf("Version after Train of 2 types = %d", got)
	}
	if err := b.Enroll("hubC", synthType(300, 10, rng)); err != nil {
		t.Fatal(err)
	}
	if got := b.Version(); got != 3 {
		t.Fatalf("Version after Enroll = %d", got)
	}
	// A failed enrolment (duplicate name) must not bump the version.
	if err := b.Enroll("hubC", synthType(300, 10, rng)); err == nil {
		t.Fatal("duplicate enrolment accepted")
	}
	if got := b.Version(); got != 3 {
		t.Errorf("Version after failed Enroll = %d, want 3", got)
	}
}

// TestAlphabetBoundedUnderChurn re-enrols one type name forty times,
// each time with prints of vectors no earlier print used, removing it in
// between. Each re-enrolment replaces the tombstone, so the bank holds
// the same number of prints throughout; the reference alphabet must stay
// within twice the symbols those prints use, and discrimination over the
// churned alphabet must match a bank restored (and re-interned) from its
// snapshot.
func TestAlphabetBoundedUnderChurn(t *testing.T) {
	seeds := map[string]int64{"camA": 100, "plugB": 200}
	bank, test := trainedBank(t, seeds, 8)
	for round := range 40 {
		prints := make([]*fingerprint.Fingerprint, 6)
		for i := range prints {
			var vs []features.Vector
			for j := range 10 {
				vs = append(vs, synthVector(j, int32(100000+round*1000+i*10+j), 1))
			}
			prints[i] = fingerprint.FromVectors(vs)
		}
		if err := bank.Enroll("churn", prints); err != nil {
			t.Fatal(err)
		}
		if err := bank.Remove("churn"); err != nil {
			t.Fatal(err)
		}
		used := make(map[features.Vector]bool)
		for _, tm := range append([]*typeModel{bank.retired["churn"]}, bank.types...) {
			for _, p := range tm.prints {
				for _, v := range p.View() {
					used[v] = true
				}
			}
		}
		if len(bank.symbols) > 2*len(used) {
			t.Fatalf("round %d: alphabet holds %d symbols for %d used vectors", round, len(bank.symbols), len(used))
		}
	}
	snap, err := bank.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreBank(smallConfig(), snap)
	if err != nil {
		t.Fatal(err)
	}
	for name, prints := range test {
		for _, fp := range prints {
			candidates := append(bank.Types(), "churn")
			gotType, gotScores := bank.Discriminate(fp, candidates)
			wantType, wantScores := restored.Discriminate(fp, candidates)
			if gotType != wantType || !reflect.DeepEqual(gotScores, wantScores) {
				t.Fatalf("%s: churned bank discriminates %q %v, restored %q %v", name, gotType, gotScores, wantType, wantScores)
			}
		}
	}
}
