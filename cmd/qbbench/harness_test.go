package main

import (
	"testing"

	queenbee "repro"
)

// TestQueryPhaseWithPublisher drives the whole harness on a small
// deployment: a crawl, then closed-loop clients beside a publisher. Every
// answer must pass the oracle, and each query must run at the generation
// the gate assigns it, untraced with three clients and traced with one.
// Run with -race: clients, the publisher and the tracer share state.
func TestQueryPhaseWithPublisher(t *testing.T) {
	c := genCorpus(3, 80)
	pages := corpusPages(c.Docs[:60])
	seeds := make([]string, len(pages))
	for i, p := range pages {
		seeds[i] = p.URL
	}
	for _, traced := range []bool{false, true} {
		r := &run{seed: 3, clients: 3, rep: -1}
		if traced {
			r.tr, r.clients = newTracer(), 1
		}
		r.e = queenbee.New(queenbee.WithSeed(1), queenbee.WithFrontendPool(2), queenbee.WithHedgedReads(true))
		r.tr.wrap(r.e)
		r.owner = r.e.NewAccount("creator", 1_000_000)
		if !r.crawl(pages, seeds, crawlOpts{batch: 16, rankEvery: 2}) {
			t.Fatalf("crawl failed: %v", r.problems)
		}
		orc := newOracle()
		orc.publish(0, pages)
		pool, stream := genQueries(3, "test", pages, 40, 300)
		r.specs = pool
		r.queryPhase(pool, stream, publishBatches(c, 3, 60, 2, 8, 4), orc, true)
		r.check(orc)
		if r.failed != 0 || r.wedged {
			t.Fatalf("traced=%v: %d failures: %v", traced, r.failed, r.problems)
		}
		if len(r.answers) != len(stream) {
			t.Fatalf("traced=%v: %d answers for %d queries", traced, len(r.answers), len(stream))
		}
		for j, a := range r.answers {
			if a.gen != j/100 {
				t.Fatalf("traced=%v: query %d ran at generation %d, want %d", traced, j, a.gen, j/100)
			}
		}
		if got := len(r.endToEnd()); got != len(endToEndSpecs) {
			t.Errorf("traced=%v: %d end-to-end metrics, want %d", traced, got, len(endToEndSpecs))
		}
		if traced {
			pl := r.perLayer()
			for _, name := range []string{"netsim.calls_per_query", "dht.find_value_per_query", "dht.store_per_page", "round.ms", "maintenance.ms_per_pass", "frontend.self_us_per_query"} {
				if pl[name].Value <= 0 {
					t.Errorf("per-layer %s = %v, want > 0", name, pl[name].Value)
				}
			}
		}
	}
}
