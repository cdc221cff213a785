package queenbee

import (
	"strings"
	"testing"
)

func modesEngine(t *testing.T) (*Engine, *Account) {
	t.Helper()
	e := New(WithSeed(21), WithPeers(10), WithBees(3))
	alice := e.NewAccount("alice", 1000)
	docs := map[string]string{
		"dweb://m1": "solar panels convert sunlight into electricity",
		"dweb://m2": "wind turbines convert moving air into electricity",
		"dweb://m3": "sunlight exposure affects sleep patterns",
	}
	for url, text := range docs {
		if err := e.Publish(alice, url, text, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntilIdle()
	return e, alice
}

func TestFacadeSearchAny(t *testing.T) {
	e, _ := modesEngine(t)
	resp, err := e.Query("turbines panels").Any().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("OR results = %+v", resp.Results)
	}
}

func TestFacadeSearchPhrase(t *testing.T) {
	e, _ := modesEngine(t)
	// "convert sunlight" is adjacent only in m1; m3 has "sunlight" in
	// another context.
	resp, err := e.Query("convert sunlight").Phrase().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].URL != "dweb://m1" {
		t.Fatalf("phrase results = %+v", resp.Results)
	}
	// Non-adjacent order fails.
	resp, err = e.Query("sunlight convert").Phrase().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("reversed phrase should not match: %+v", resp.Results)
	}
}

func TestFacadeSearchSnippets(t *testing.T) {
	e, _ := modesEngine(t)
	resp, err := e.Query("turbines").All().WithSnippets().Limit(5).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if !strings.Contains(resp.Results[0].Snippet, "«") {
		t.Fatalf("snippet missing match marker: %q", resp.Results[0].Snippet)
	}
}

func TestFacadeAndVsOrSubset(t *testing.T) {
	e, _ := modesEngine(t)
	and, err := e.Query("convert electricity").All().Run()
	if err != nil {
		t.Fatal(err)
	}
	or, err := e.Query("convert electricity").Any().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(and.Results) > len(or.Results) {
		t.Fatalf("AND (%d) should never exceed OR (%d)", len(and.Results), len(or.Results))
	}
	orURLs := map[string]bool{}
	for _, r := range or.Results {
		orURLs[r.URL] = true
	}
	for _, r := range and.Results {
		if !orURLs[r.URL] {
			t.Fatalf("AND result %s missing from OR set", r.URL)
		}
	}
}

func TestFacadeSwarmingOption(t *testing.T) {
	e := New(WithSeed(31), WithPeers(8), WithBees(2), WithSwarming(true))
	if !e.Cluster.Config().Peer.Swarming {
		t.Fatal("WithSwarming not applied")
	}
	alice := e.NewAccount("alice", 1000)
	if err := e.Publish(alice, "dweb://sw", "swarming fetch still indexes fine", nil); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle()
	resp, err := e.Query("swarming").All().Limit(5).Run()
	if err != nil || len(resp.Results) != 1 {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
}

func TestFacadeStakeWeightedOption(t *testing.T) {
	e := New(WithSeed(32), WithPeers(8), WithBees(3), WithStakeWeightedQuorum(true))
	if !e.Cluster.Config().Contract.StakeWeightedQuorum {
		t.Fatal("WithStakeWeightedQuorum not applied")
	}
	alice := e.NewAccount("alice", 1000)
	if err := e.Publish(alice, "dweb://sq", "stake weighted quorum works", nil); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle()
	s := e.Stats()
	if s.TasksFinalized != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
