package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/ml"
)

// goldenSnapshotSHA256 is the digest of the bank TestTrainSnapshotGolden
// builds. It pins every trained tree to the bit: a change to the
// inducer, the forest loop, the seed derivation or the negative
// sampling that moves any threshold, probability or node changes it.
const goldenSnapshotSHA256 = "24b2f3abfde2074df08c2668bde67b4de4a262349de52592ed034d4045476768"

// TestTrainSnapshotGolden trains a bank on the synthesized catalog with
// one type held out, enrolls that type incrementally, and checks the
// snapshot digest against the pinned value.
func TestTrainSnapshotGolden(t *testing.T) {
	ds, err := devices.GenerateDataset(devices.DefaultEnv(), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	const heldOut = "iKettle2"
	train := make(map[string][]*fingerprint.Fingerprint, len(ds)-1)
	for name, prints := range ds {
		if name != heldOut {
			train[name] = prints
		}
	}
	cfg := Default()
	cfg.Forest = ml.ForestConfig{Trees: 100}
	cfg.Seed = 1
	bank, err := Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.Enroll(heldOut, ds[heldOut]); err != nil {
		t.Fatal(err)
	}
	snap, err := bank.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != goldenSnapshotSHA256 {
		t.Fatalf("snapshot sha256 %s, want %s: training is no longer bit-identical", got, goldenSnapshotSHA256)
	}
}
