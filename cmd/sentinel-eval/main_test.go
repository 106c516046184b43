package main

import "testing"

func TestEvalUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "fig99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestEvalBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestEvalQuickFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("CV run in -short mode")
	}
	err := run([]string{"-experiment", "fig5", "-runs", "6", "-folds", "3", "-repeats", "1", "-trees", "15"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEvalQuickFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet load run in -short mode")
	}
	err := run([]string{"-experiment", "fleet", "-runs", "10", "-trees", "25", "-shards", "2", "-backends", "2"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunDistributedExperimentSmoke drives the distributed-bank
// experiment end to end through the CLI entry point at a reduced size.
func TestRunDistributedExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed experiment in -short mode")
	}
	err := run([]string{"-experiment", "distributed", "-runs", "10", "-trees", "25", "-shards", "2"})
	if err != nil {
		t.Fatalf("distributed experiment: %v", err)
	}
}

// TestRunServiceExperimentSmoke drives the multi-gateway load
// experiment — the per-request baseline and the batched, cached service
// — end to end through the CLI entry point at a reduced size.
func TestRunServiceExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("service experiment in -short mode")
	}
	if err := run([]string{"-experiment", "service", "-runs", "10", "-trees", "25"}); err != nil {
		t.Fatalf("service experiment: %v", err)
	}
}
