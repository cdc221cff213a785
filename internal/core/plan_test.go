package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/query"
)

// urlsOf collects result URLs into a set.
func urlsOf(resp SearchResponse) map[string]bool {
	out := make(map[string]bool, len(resp.Results))
	for _, r := range resp.Results {
		out[r.URL] = true
	}
	return out
}

// TestQueryExecuteBoolean drives the parsed query language end-to-end
// over the shared three-document cluster: exclusions, site: filters in
// both polarities, OR, and quoted phrases.
func TestQueryExecuteBoolean(t *testing.T) {
	_, fe := queryCluster(t)
	cases := []struct {
		q    string
		want []string
	}{
		// q1: "red apples grow on apple trees in the orchard"
		// q2: "red fire trucks race through the city streets"
		// q3: "green apples taste sour compared to red apples"
		{"red -fire", []string{"dweb://q1", "dweb://q3"}},
		{"red -apples", []string{"dweb://q2"}},
		{"red site:dweb://q3", []string{"dweb://q3"}},
		{"red -site:dweb://q2", []string{"dweb://q1", "dweb://q3"}},
		{"orchard OR streets", []string{"dweb://q1", "dweb://q2"}},
		{`"red apples"`, []string{"dweb://q1", "dweb://q3"}},
		{`red -"apple trees"`, []string{"dweb://q2", "dweb://q3"}},
		{"(orchard OR streets) red", []string{"dweb://q1", "dweb://q2"}},
		{"red -(fire OR green)", []string{"dweb://q1"}},
	}
	for _, tc := range cases {
		resp, err := fe.Execute(Query{Raw: tc.q})
		if err != nil {
			t.Errorf("Execute(%q): %v", tc.q, err)
			continue
		}
		got := urlsOf(resp)
		if len(got) != len(tc.want) {
			t.Errorf("Execute(%q) = %v, want %v", tc.q, got, tc.want)
			continue
		}
		for _, u := range tc.want {
			if !got[u] {
				t.Errorf("Execute(%q) = %v, missing %s", tc.q, got, u)
			}
		}
		if resp.Total != len(tc.want) {
			t.Errorf("Execute(%q).Total = %d, want %d", tc.q, resp.Total, len(tc.want))
		}
	}
}

func TestQueryExecuteErrors(t *testing.T) {
	_, fe := queryCluster(t)
	if _, err := fe.Execute(Query{Raw: "the of and"}); !errors.Is(err, query.ErrEmptyQuery) {
		t.Errorf("stopword-only: err = %v, want ErrEmptyQuery", err)
	}
	if _, err := fe.Execute(Query{Raw: "-red"}); !errors.Is(err, query.ErrBadSyntax) {
		t.Errorf("exclusion-only: err = %v, want ErrBadSyntax", err)
	}
	if _, err := fe.Execute(Query{Raw: `"unterminated`}); !errors.Is(err, query.ErrBadSyntax) {
		t.Errorf("unterminated quote: err = %v, want ErrBadSyntax", err)
	}
	// Flat modes bypass the parser but still reject term-free strings.
	if _, err := fe.Execute(Query{Raw: "the of", Mode: PlanAll}); !errors.Is(err, query.ErrEmptyQuery) {
		t.Errorf("flat stopword-only: err = %v, want ErrEmptyQuery", err)
	}
}

// TestQueryExecutePagination checks that offset/limit pages tile the
// ranked result list: disjoint, rank-ordered, and unioning back to the
// unpaginated set.
func TestQueryExecutePagination(t *testing.T) {
	_, fe := queryCluster(t)
	full, err := fe.Execute(Query{Raw: "red", Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Results) != 3 || full.Total != 3 {
		t.Fatalf("full = %d results, total %d", len(full.Results), full.Total)
	}
	var paged []Result
	for page := 0; page < 3; page++ {
		resp, err := fe.Execute(Query{Raw: "red", Limit: 1, Offset: page})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 {
			t.Fatalf("page %d: %d results", page, len(resp.Results))
		}
		if resp.Total != 3 {
			t.Fatalf("page %d: total = %d, want 3", page, resp.Total)
		}
		paged = append(paged, resp.Results[0])
	}
	for i, r := range paged {
		if r != full.Results[i] {
			t.Fatalf("page %d = %+v, want %+v", i, r, full.Results[i])
		}
	}
	// Past the end: empty page, same total.
	resp, err := fe.Execute(Query{Raw: "red", Limit: 5, Offset: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 || resp.Total != 3 {
		t.Fatalf("past-end page = %d results, total %d", len(resp.Results), resp.Total)
	}
}

func TestQueryExecuteExplain(t *testing.T) {
	_, fe := queryCluster(t)
	resp, err := fe.Execute(Query{Raw: "red apples -fire", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("Explain flag set but no trace on response")
	}
	if ex.Plan == nil || ex.Plan.Op != "and" {
		t.Fatalf("plan root = %+v, want and", ex.Plan)
	}
	if ex.Candidates != resp.Total || ex.Returned != len(resp.Results) {
		t.Fatalf("explain counts %d/%d vs response %d/%d",
			ex.Candidates, ex.Returned, resp.Total, len(resp.Results))
	}
	if len(ex.Shards) == 0 || len(ex.Terms) != 3 {
		t.Fatalf("shards=%v terms=%v", ex.Shards, ex.Terms)
	}
	// The excluded term still appears in the loaded-terms list (its
	// shard is part of the wave) but not in the response's positive
	// terms.
	foundFire := false
	for _, term := range ex.Terms {
		if term == "fire" {
			foundFire = true
		}
	}
	if !foundFire {
		t.Fatalf("excluded term missing from explain terms: %v", ex.Terms)
	}
	for _, term := range resp.Terms {
		if term == "fire" {
			t.Fatalf("excluded term leaked into positive terms: %v", resp.Terms)
		}
	}
	// Per-node candidate counts: the AND has a term leg, and a NOT leg
	// whose count is the size of the excluded set (one doc has "fire").
	var sawNot bool
	for _, kid := range ex.Plan.Children {
		if kid.Op == "not" {
			sawNot = true
			if kid.Candidates != 1 {
				t.Fatalf("not leg candidates = %d, want 1", kid.Candidates)
			}
		}
	}
	if !sawNot {
		t.Fatalf("plan children missing not leg: %+v", ex.Plan.Children)
	}
	if ex.TotalCost.Latency < ex.LoadCost.Latency {
		t.Fatalf("total cost %v below load cost %v", ex.TotalCost.Latency, ex.LoadCost.Latency)
	}
	if ex.String() == "" {
		t.Fatal("explain rendering empty")
	}
	// Tracing off → no tree.
	resp, err = fe.Execute(Query{Raw: "red"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Explain != nil {
		t.Fatal("explain present without the flag")
	}
}

// TestQueryFailedWaveAccounting pins the loadShardsCtx error contract: when
// one shard of the wave fails, the caller gets no partial result map, the
// error names the lowest-indexed failing shard and wraps
// ErrShardUnavailable, and the Explain trace still records the full
// wave's shards and cost (every fetch was in flight when the wave
// failed).
func TestQueryFailedWaveAccounting(t *testing.T) {
	c, fe := queryCluster(t)

	// Poison the pointer record of the shard the analyzed "red" hashes
	// to with a higher-versioned garbage value: every replica converges
	// on it, so the next pointer read fails to parse.
	terms := index.AnalyzeQuery("red apples")
	if len(terms) != 2 {
		t.Fatalf("analyzed terms = %v, want 2", terms)
	}
	shard := index.ShardOf(terms[0], c.Config().NumShards)
	key := dht.KeyOfString(index.ShardPointerKey(shard))
	if _, _, err := fe.peer.DHT().Put(key, []byte("not json"), 1<<60); err != nil {
		t.Fatal(err)
	}

	resp, err := fe.Execute(Query{Raw: "red apples", Explain: true})
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("shard %d", shard)) {
		t.Fatalf("err %q does not name the failing shard %d", err, shard)
	}
	if len(resp.Results) != 0 || resp.Total != 0 {
		t.Fatalf("failed wave leaked results: %+v", resp.Results)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("failed wave with Explain requested should still carry the trace")
	}
	// Both terms' shards belong to the wave even though one failed, and
	// the wave's cost covers every in-flight fetch.
	wantShards := map[int]bool{
		index.ShardOf(terms[0], c.Config().NumShards): true,
		index.ShardOf(terms[1], c.Config().NumShards): true,
	}
	if len(ex.Shards) != len(wantShards) {
		t.Fatalf("explain shards = %v, want %d distinct", ex.Shards, len(wantShards))
	}
	for _, s := range ex.Shards {
		if !wantShards[s] {
			t.Fatalf("explain shards = %v, unexpected %d", ex.Shards, s)
		}
	}
	if ex.LoadCost.Msgs == 0 || ex.LoadCost.Latency == 0 {
		t.Fatalf("failed wave load cost empty: %+v", ex.LoadCost)
	}
	if ex.TotalCost != ex.LoadCost {
		t.Fatalf("failed wave total %+v should equal load %+v (nothing else ran)", ex.TotalCost, ex.LoadCost)
	}
	if ex.Plan != nil || ex.Candidates != 0 || ex.Returned != 0 {
		t.Fatalf("failed wave should carry no plan/candidates: %+v", ex)
	}
}

// TestQueryFlatModesMatchLegacy pins the wrapper contract: SearchWith's
// flat modes and the planner agree, and operators are plain text there.
func TestQueryFlatModesMatchLegacy(t *testing.T) {
	_, fe := queryCluster(t)
	// In flat AND mode, "OR" is a stopword and "-" is punctuation.
	resp, err := fe.SearchWith("orchard OR streets", SearchOptions{Mode: ModeAND, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("flat AND of disjoint terms matched %v", urlsOf(resp))
	}
	parsed, err := fe.Execute(Query{Raw: "orchard OR streets"})
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Results) != 2 {
		t.Fatalf("parsed OR = %v", urlsOf(parsed))
	}
	// Snippets ride through Execute: the fetch wave costs Par, so the
	// latency is at least one fetch but the response still carries a
	// snippet per result.
	withSnips, err := fe.Execute(Query{Raw: "orchard", Snippets: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(withSnips.Results) != 1 || withSnips.Results[0].Snippet == "" {
		t.Fatalf("snippets missing: %+v", withSnips.Results)
	}
}
