package queenbee

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestScaleMillion is the end-to-end write-path scaling run: crawl →
// index → rank → serve over a synthetic web, at a scale picked by
// environment:
//
//	default / -short        10^4 pages  (CI smoke; asserted memory ceiling)
//	QUEENBEE_SCALE_CI=1     10^5 pages  (nightly-sized CI job)
//	QUEENBEE_SCALE=1        10^6 pages  (the full million-document run;
//	                                     takes a long time — run by hand)
//
// The harness asserts exact ingest counts (failure and dedup are
// disabled so every generated page must land), serving correctness on
// the full corpus, delta rank epochs riding the crawl, a bounded write
// amplification, and a per-page memory budget. At the smoke scale it
// additionally replays the ingest on a monolithic-compaction +
// full-recompute control engine and requires identical search results
// — the legacy write path and the scaled one must be observationally
// equivalent.
func TestScaleMillion(t *testing.T) {
	pages := 10_000
	switch {
	case os.Getenv("QUEENBEE_SCALE") == "1":
		pages = 1_000_000
	case os.Getenv("QUEENBEE_SCALE_CI") == "1":
		pages = 100_000
	case testing.Short():
		// 10^4 is the floor; -short keeps it.
	}

	run := scaleRun(t, pages, false)

	// Memory budget: the live heap of the served engine (measured inside
	// scaleRun while the engine is still reachable), amortized per page.
	// The smoke scale carries a fixed-overhead allowance (cluster boot,
	// caches); the per-page slope is what must not regress, or 10^6
	// stops fitting in a commodity machine.
	budget := uint64(256<<20) + uint64(pages)*20<<10 // 256 MiB + 20 KiB/page
	if run.heap > budget {
		t.Fatalf("live heap after %d pages = %d MiB, budget %d MiB",
			pages, run.heap>>20, budget>>20)
	}
	t.Logf("scale=%d heap=%dMiB amp=%.2f epochs=%d tiers=%v",
		pages, run.heap>>20, run.write.Amplification(), run.ingest.RankEpochs, run.write.SegmentsPerTier)

	// Control comparison only at the smoke scale (a second full engine
	// doubles the cost): the monolithic + full-recompute engine must
	// serve byte-identical results.
	if pages > 10_000 || testing.Short() {
		return
	}
	control := scaleRun(t, pages, true)
	if len(run.results) != len(control.results) {
		t.Fatalf("result set sizes diverged: %d vs control %d", len(run.results), len(control.results))
	}
	for i := range run.results {
		if run.results[i] != control.results[i] {
			t.Fatalf("query %d diverged from control:\n tiered+delta: %v\n control:      %v",
				i, run.results[i], control.results[i])
		}
	}
	// And the scaled path must not rewrite more than the control did.
	if run.write.CompactedBytes > control.write.CompactedBytes {
		t.Fatalf("tiered rewrote %d bytes, monolithic control %d — tiering lost its own game",
			run.write.CompactedBytes, control.write.CompactedBytes)
	}
}

// scaleOutcome is what one engine's scale run exposes for assertions.
type scaleOutcome struct {
	ingest  IngestStats
	write   WriteStats
	results []string // "url score" lines of the probe queries, in order
	heap    uint64   // live heap bytes after the probes, engine still reachable
}

// scaleRun drives one engine through the full pipeline at the given
// page count and probes it with deterministic queries.
func scaleRun(t *testing.T, pages int, control bool) scaleOutcome {
	t.Helper()
	opts := []Option{
		WithSeed(42),
		WithPeers(10),
		WithBees(3),
		WithShards(8),
	}
	if control {
		opts = append(opts, monolithicCompaction, WithRankFullEvery(1))
	}
	e := New(opts...)

	web := scalePages(pages)
	st, err := e.Crawl(context.Background(), []string{web[0].URL}, CrawlOptions{
		Pages:          web,
		BatchSize:      256,
		MaxPages:       pages,
		DedupThreshold: -1, // exact counts: no demotion
		FetchFailRate:  0,  // and no simulated fetch loss
		RankEvery:      8,  // a delta-scheduled epoch every 8 batches
		RankPartitions: 2,
	})
	if err != nil {
		t.Fatalf("crawl at scale %d: %v", pages, err)
	}
	if st.Published != pages || st.Fetched != pages {
		t.Fatalf("crawl landed %d/%d of %d pages", st.Published, st.Fetched, pages)
	}
	if st.RoundErrors != 0 {
		t.Fatalf("crawl surfaced %d round errors", st.RoundErrors)
	}
	if st.RankEpochs == 0 {
		t.Fatal("no rank epoch rode the crawl")
	}
	// Close the run with one FULL epoch — the exactness escape hatch.
	// The epochs that rode the crawl were delta-scheduled (that is the
	// cost win); the final full recompute zeroes their accumulated
	// drift, which is what lets the control comparison below demand
	// byte-identical scores instead of a tolerance.
	e.ComputeRanks(2)
	if rs := e.RankStatus(); rs.LastFull != rs.Epoch || rs.DeltasSinceFull != 0 {
		t.Fatalf("closing full epoch did not reset staleness: %+v", rs)
	}

	ws := e.WriteStats()
	if ws.IngestedBytes == 0 || ws.Compactions == 0 {
		t.Fatalf("write ledger implausible at scale: %+v", ws)
	}
	// The write-amplification contract: tiered compaction rewrites each
	// ingested byte about once per level promotion (measured ~1.3× per
	// tier — the shard's share plus the DocLens tombstone set), so total
	// amplification is O(tiers) = O(log₄ rounds), never O(tiers×shards)
	// or the monolithic policy's O(rounds). Asserted per tier with 2×
	// headroom; a regression to whole-chain or unrestricted rewrites
	// blows through it immediately at any scale.
	if !control {
		maxTier := len(ws.SegmentsPerTier) - 1
		if bound := 1 + 2*float64(maxTier); ws.Amplification() > bound {
			t.Fatalf("write amplification %.2f exceeds the tiered bound %.1f at %d tiers (ledger %+v)",
				ws.Amplification(), bound, maxTier, ws)
		}
	}

	out := scaleOutcome{ingest: st, write: ws}
	for _, q := range scaleQueries() {
		resp, err := e.Query(q).All().Limit(10).Run()
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if len(resp.Results) == 0 {
			t.Fatalf("query %q found nothing in a %d-page index", q, pages)
		}
		for _, r := range resp.Results {
			out.results = append(out.results, fmt.Sprintf("%s %v %v", r.URL, r.Score, r.Rank))
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(e)
	out.heap = ms.HeapAlloc
	return out
}

// scaleWords is the vocabulary of the scale generator; small enough
// that queries hit everywhere, spread enough that every shard fills.
var scaleWords = []string{
	"honey", "nectar", "forage", "waggle", "swarm", "queen", "worker", "drone",
	"comb", "hive", "pollen", "clover", "meadow", "orchard", "cedar", "willow",
	"bramble", "thistle", "sage", "fennel", "yarrow", "sorrel", "vetch", "rue",
}

// scalePages generates n pages in O(1) per page: deterministic text
// drawn from a fixed vocabulary and a shallow link pattern (each page
// links to a recent page and to one of a few hubs, giving the rank
// vector real skew without the O(n²) preferential-attachment walk the
// corpus generator pays).
func scalePages(n int) []Page {
	pages := make([]Page, n)
	for i := 0; i < n; i++ {
		w := func(k int) string { return scaleWords[(i*7+k*13)%len(scaleWords)] }
		var links []string
		if i+1 < n {
			links = append(links, scaleURL(i+1)) // forward chain: the frontier reaches everything from page 0
		}
		if i > 0 {
			links = append(links, scaleURL(i%16)) // a few early hubs dominate the rank
			if i%97 == 3 {
				links = append(links, scaleURL(i/2)) // occasional long-range edge
			}
		}
		pages[i] = Page{
			URL: scaleURL(i),
			// Two anchor terms every page carries (serving probes with
			// full-corpus postings) plus three rotating terms that spread
			// the vocabulary over every shard.
			Text:  fmt.Sprintf("honey hive %s %s %s page %d", w(0), w(1), w(2), i),
			Links: links,
		}
	}
	return pages
}

func scaleURL(i int) string { return fmt.Sprintf("dweb://scale/%07d", i) }

// scaleQueries are the serving probes: the anchor pair hits every page
// (the heaviest postings the index holds), the single terms hit the
// rotating slices.
func scaleQueries() []string {
	return []string{"honey hive", "meadow", "queen", "bramble"}
}
