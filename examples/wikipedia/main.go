// Wikipedia: the paper's motivating deployment — a wiki snapshot hosted
// on the DWeb with QueenBee as its search engine. This example publishes
// a synthetic Wikipedia stand-in (Zipf vocabulary, preferential-
// attachment link graph), runs a distributed page-rank epoch, pays
// popularity rewards to the providers of well-linked articles, and
// answers queries blending BM25 with page rank.
package main

import (
	"fmt"
	"log"

	queenbee "repro"
	"repro/internal/corpus"
)

func main() {
	engine := queenbee.New(
		queenbee.WithSeed(7),
		queenbee.WithPeers(20),
		queenbee.WithBees(5),
		queenbee.WithRankWeight(2.0),
		queenbee.WithPopularityThreshold(0.01),
	)

	// Ten independent editors publish the snapshot.
	editors := make([]*queenbee.Account, 10)
	for i := range editors {
		editors[i] = engine.NewAccount(fmt.Sprintf("editor-%02d", i), 10_000)
	}

	cfg := corpus.DefaultConfig()
	cfg.Seed = 7
	cfg.NumDocs = 80
	cfg.MeanDocLen = 80
	wiki := corpus.Generate(cfg)

	fmt.Printf("publishing %d wiki articles…\n", len(wiki.Docs))
	for i, d := range wiki.Docs {
		if err := engine.Publish(editors[i%len(editors)], d.URL, d.Text, d.Links); err != nil {
			log.Fatal(err)
		}
		if i%20 == 19 {
			engine.Run(2) // bees keep up while publishing continues
		}
	}
	engine.RunUntilIdle()
	s := engine.Stats()
	fmt.Printf("indexed: %d articles, %d verified tasks\n", s.Pages, s.TasksFinalized)

	fmt.Println("computing page ranks across 4 worker-bee partitions…")
	epoch := engine.ComputeRanks(4)
	if err := engine.PayPopularityRewards(epoch); err != nil {
		fmt.Println("(no popularity rewards due)", err)
	}

	// An editor updates an article — searchable within seconds, because
	// there is no crawler to wait for.
	update := wiki.Revise(3, 1, 0.5)
	if err := engine.Publish(editors[3%len(editors)], update.URL, update.Text+" freshlyedited", update.Links); err != nil {
		log.Fatal(err)
	}
	engine.RunUntilIdle()
	if resp, err := engine.Query("freshlyedited").All().Limit(3).Run(); err == nil && len(resp.Results) == 1 {
		fmt.Println("update searchable immediately after publish:", resp.Results[0].URL)
	}

	// Queries sampled from article text.
	for _, q := range wiki.Queries(1, 4, 2) {
		resp, err := engine.Query(q.Text).All().Limit(3).Run()
		if err != nil {
			continue
		}
		fmt.Printf("\nquery %q\n", q.Text)
		for i, r := range resp.Results {
			fmt.Printf("  %d. %-28s score=%.3f rank=%.4f\n", i+1, r.URL, r.Score, r.Rank)
		}
	}

	// Which editors got popularity honey?
	fmt.Println("\neditor balances (10000 honey at start):")
	for _, e := range editors {
		fmt.Printf("  %-10s %6d\n", e.Name(), engine.Balance(e))
	}
}
