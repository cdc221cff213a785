package queenbee

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// Reference oracles that are not part of the public option set. Each
// leaves results byte-identical and changes only how the work is done.
var (
	// exhaustiveScoring scores every candidate against every term
	// instead of block-max WAND early termination.
	exhaustiveScoring Option = func(c *core.Config) { c.ExhaustiveScoring = true }
	// monolithicCompaction merges a shard's whole chain once it passes
	// the threshold, instead of size-tiered compaction.
	monolithicCompaction Option = func(c *core.Config) { c.MonolithicCompaction = true }
	// serialWaves runs every round wave and every query shard wave
	// sequentially, in a fixed order.
	serialWaves Option = func(c *core.Config) { c.ParallelRounds = false }
)

func newEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	base := []Option{WithSeed(7), WithPeers(10), WithBees(3)}
	return New(append(base, opts...)...)
}

func TestEngineQuickstartFlow(t *testing.T) {
	e := newEngine(t)
	alice := e.NewAccount("alice", 1000)
	if err := e.Publish(alice, "dweb://hive", "worker bees build honeycomb cells", nil); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle()
	resp, err := e.Query("honeycomb cells").All().Run()
	if err != nil {
		t.Fatal(err)
	}
	results := resp.Results
	if len(results) != 1 || results[0].URL != "dweb://hive" {
		t.Fatalf("results = %+v", results)
	}
	content, err := e.Fetch(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(content, "honeycomb") {
		t.Fatalf("content = %q", content)
	}
}

func TestEngineOptionsApply(t *testing.T) {
	e := New(WithSeed(3), WithPeers(6), WithBees(2), WithShards(4),
		WithQuorum(2), WithRankWeight(2.5), WithBlockInterval(time.Second),
		WithReplication(4), WithPopularityThreshold(0.5))
	cfg := e.Cluster.Config()
	if cfg.NumPeers != 6 || cfg.NumBees != 2 || cfg.NumShards != 4 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Contract.Quorum != 2 || cfg.RankWeight != 2.5 || cfg.DHT.K != 4 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Contract.PopularityThreshold != 0.5 {
		t.Fatalf("threshold = %v", cfg.Contract.PopularityThreshold)
	}
}

func TestEngineRanksAndRewards(t *testing.T) {
	e := newEngine(t, WithPopularityThreshold(0.2))
	alice := e.NewAccount("alice", 1000)
	e.Publish(alice, "dweb://hub", "the page everyone cites", nil)
	for _, u := range []string{"dweb://x", "dweb://y", "dweb://z"} {
		e.Publish(alice, u, "citation page "+u, []string{"dweb://hub"})
	}
	e.RunUntilIdle()
	epoch := e.ComputeRanks(2)
	if e.PageRank("dweb://hub") <= e.PageRank("dweb://x") {
		t.Fatal("hub should outrank spokes")
	}
	before := e.Balance(alice)
	if err := e.PayPopularityRewards(epoch); err != nil {
		t.Fatal(err)
	}
	if e.Balance(alice) <= before {
		t.Fatal("popularity reward not paid")
	}
}

func TestEngineAdFlow(t *testing.T) {
	e := newEngine(t)
	alice := e.NewAccount("alice", 1000)
	adv := e.NewAccount("brand", 5000)
	user := e.NewAccount("user", 100)
	e.Publish(alice, "dweb://recipes", "sourdough bread baking recipes", nil)
	e.RunUntilIdle()

	adID, err := e.RegisterAd(adv, []string{"bread", "baking"}, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Query("bread baking").All().Run()
	if err != nil || len(resp.Ads) != 1 || resp.Ads[0].ID != adID {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	creatorBefore := e.Balance(alice)
	if err := e.Click(user, adID, "dweb://recipes"); err != nil {
		t.Fatal(err)
	}
	if e.Balance(alice) <= creatorBefore {
		t.Fatal("creator not paid for click")
	}
}

func TestEngineStats(t *testing.T) {
	e := newEngine(t)
	alice := e.NewAccount("alice", 1000)
	e.Publish(alice, "dweb://one", "first page text", nil)
	e.RunUntilIdle()
	s := e.Stats()
	if s.Pages != 1 || s.TasksFinalized != 1 || s.TasksOpen != 0 || s.Workers != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Height == 0 || s.HoneySupply == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Result {
		e := New(WithSeed(42), WithPeers(8), WithBees(3))
		a := e.NewAccount("a", 1000)
		e.Publish(a, "dweb://d1", "alpha beta gamma delta", nil)
		e.Publish(a, "dweb://d2", "alpha beta epsilon zeta", nil)
		e.RunUntilIdle()
		resp, err := e.Query("alpha beta").All().Run()
		if err != nil {
			t.Fatal(err)
		}
		return resp.Results
	}
	x, y := run(), run()
	if len(x) != len(y) || len(x) != 2 {
		t.Fatalf("lens: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("nondeterministic results: %+v vs %+v", x[i], y[i])
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e := newEngine(t)
	alice := e.NewAccount("alice", 1000)
	user := e.NewAccount("user", 10)
	if _, err := e.Query("the of and").All().Run(); err == nil {
		t.Fatal("stopword-only query should error")
	}
	if err := e.Click(user, 999, "dweb://nope"); err == nil {
		t.Fatal("click on unknown ad should error")
	}
	if _, err := e.Fetch(Result{URL: "dweb://ghost"}); err == nil {
		t.Fatal("fetch of unregistered page should error")
	}
	_ = alice
}
