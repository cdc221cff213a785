package core

import (
	"fmt"
	"testing"
)

// churnCluster builds a larger cluster with an indexed corpus.
func churnCluster(t *testing.T) (*Cluster, []string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.NumPeers = 24
	cfg.NumBees = 3
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 10_000)
	c.Seal()
	var markers []string
	for i := 0; i < 10; i++ {
		marker := fmt.Sprintf("churnmarker%02d", i)
		markers = append(markers, marker)
		if _, err := c.Publish(alice, c.Peers[i%len(c.Peers)], fmt.Sprintf("dweb://churn/%d", i),
			"stable document body "+marker, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal()
	c.RunUntilIdle(8)
	return c, markers
}

func searchableCount(t *testing.T, c *Cluster, fe *Frontend, markers []string) int {
	t.Helper()
	hits := 0
	for _, m := range markers {
		resp, err := fe.Execute(Query{Raw: m, Mode: PlanAll, Limit: 5})
		if err == nil && len(resp.Results) > 0 {
			hits++
		}
	}
	return hits
}

func TestSearchSurvivesModerateChurn(t *testing.T) {
	c, markers := churnCluster(t)
	fe := NewFrontend(c, c.Bees[0].Peer) // frontend on a bee (never failed)
	if got := searchableCount(t, c, fe, markers); got != len(markers) {
		t.Fatalf("pre-churn searchable = %d/%d", got, len(markers))
	}
	c.FailPeers(0.25)
	fe2 := NewFrontend(c, c.Bees[1].Peer) // fresh frontend, no caches
	if got := searchableCount(t, c, fe2, markers); got < len(markers)*8/10 {
		t.Fatalf("post-churn searchable = %d/%d, want >= 80%%", got, len(markers))
	}
}

func TestRefreshRestoresAfterHeavyChurn(t *testing.T) {
	c, markers := churnCluster(t)
	failed := c.FailPeers(0.5)

	// Survivors re-replicate records onto the live closest nodes.
	c.RefreshDHT()

	// Even after the failed half never comes back, a fresh frontend on a
	// live bee should find (nearly) everything again.
	fe := NewFrontend(c, c.Bees[2].Peer)
	got := searchableCount(t, c, fe, markers)
	if got < len(markers)*8/10 {
		t.Fatalf("post-refresh searchable = %d/%d, want >= 80%%", got, len(markers))
	}
	// Healing is also possible.
	c.HealPeers(failed)
	if got := searchableCount(t, c, fe, markers); got != len(markers) {
		t.Fatalf("post-heal searchable = %d/%d", got, len(markers))
	}
}

func TestIndexingContinuesDuringChurn(t *testing.T) {
	c, _ := churnCluster(t)
	c.FailPeers(0.25)
	alice := c.NewAccount("alice2", 10_000)
	c.Seal()
	// Publish onto a live peer (bees are always live).
	if _, err := c.Publish(alice, c.Bees[0].Peer, "dweb://during-churn",
		"published while the swarm is degraded churnfresh", nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	c.RunUntilIdle(8)
	fe := NewFrontend(c, c.Bees[1].Peer)
	resp, err := fe.Execute(Query{Raw: "churnfresh", Mode: PlanAll, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("new content not indexed during churn: %+v", resp.Results)
	}
}

func TestFailPeersDeterministic(t *testing.T) {
	build := func() []string {
		cfg := DefaultConfig()
		cfg.Seed = 9
		cfg.NumPeers = 12
		cfg.NumBees = 2
		c := NewCluster(cfg)
		var out []string
		for _, a := range c.FailPeers(0.3) {
			out = append(out, string(a))
		}
		return out
	}
	a, b := build(), build()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lens %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FailPeers not deterministic")
		}
	}
}
