// Command queenbee boots a simulated QueenBee deployment, publishes a
// demo corpus through the smart contract, lets the worker bees index and
// rank it, and serves a few queries — the whole Figure 1 flow in one run.
//
// Usage:
//
//	queenbee -peers 24 -bees 6 -docs 40 -query "decentralized search"
//	queenbee -query 'search OR retrieval -crawler site:dweb://doc-000' -explain
//
// The -query flag speaks the full structured query language (uppercase
// OR/AND, '-' exclusions, "quoted phrases", site: URL-prefix filters,
// parentheses — see docs/query-language.md); -explain prints the
// compiled execution plan with per-node candidate counts and simulated
// network cost.
package main

import (
	"flag"
	"fmt"
	"os"

	queenbee "repro"
	"repro/internal/corpus"
)

func main() {
	peers := flag.Int("peers", 16, "DWeb devices in the swarm")
	bees := flag.Int("bees", 4, "worker bees")
	docs := flag.Int("docs", 30, "synthetic pages to publish")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	query := flag.String("query", "", "extra structured query to run (optional; supports OR/AND, -, quotes, site:)")
	explain := flag.Bool("explain", false, "print the execution plan for -query")
	flag.Parse()

	engine := queenbee.New(
		queenbee.WithSeed(*seed),
		queenbee.WithPeers(*peers),
		queenbee.WithBees(*bees),
	)
	fmt.Printf("QueenBee swarm up: %d peers, %d worker bees\n", *peers, *bees)

	creator := engine.NewAccount("creator", 100_000)
	advertiser := engine.NewAccount("advertiser", 100_000)
	user := engine.NewAccount("user", 1_000)

	ccfg := corpus.DefaultConfig()
	ccfg.Seed = *seed
	ccfg.NumDocs = *docs
	corp := corpus.Generate(ccfg)
	fmt.Printf("publishing %d pages via the smart contract (no crawling)…\n", *docs)
	for _, d := range corp.Docs {
		if err := engine.Publish(creator, d.URL, d.Text, d.Links); err != nil {
			fmt.Fprintln(os.Stderr, "publish:", err)
			os.Exit(1)
		}
	}
	engine.RunUntilIdle()
	fmt.Println("worker bees finished indexing; computing page ranks…")
	epoch := engine.ComputeRanks(4)
	if err := engine.PayPopularityRewards(epoch); err != nil {
		fmt.Println("popularity rewards:", err)
	}

	adID, err := engine.RegisterAd(advertiser, []string{corp.Vocab(0)}, 10, 500)
	if err != nil {
		fmt.Fprintln(os.Stderr, "register ad:", err)
		os.Exit(1)
	}

	for _, q := range corp.Queries(*seed, 3, 2) {
		resp, err := engine.Query(q.Text).All().Limit(5).Run()
		if err != nil {
			fmt.Printf("query %q: %v\n", q.Text, err)
			continue
		}
		results, ads := resp.Results, resp.Ads
		fmt.Printf("\nquery %q → %d results\n", q.Text, len(results))
		for i, r := range results {
			fmt.Printf("  %d. %-28s score=%.3f rank=%.4f\n", i+1, r.URL, r.Score, r.Rank)
		}
		for _, ad := range ads {
			fmt.Printf("  [ad %d] keywords=%v bid=%d\n", ad.ID, ad.Keywords, ad.BidPerClick)
			if err := engine.Click(user, ad.ID, results[0].URL); err == nil {
				fmt.Printf("  [ad %d] user clicked — creator and bees paid\n", ad.ID)
			}
		}
	}
	// The -query flag goes through the structured pipeline: boolean
	// operators, exclusions, site: filters, pagination, Explain.
	if *query != "" {
		b := engine.Query(*query).Page(1, 5)
		if *explain {
			b = b.Explain()
		}
		resp, err := b.Run()
		if err != nil {
			fmt.Printf("\nstructured query %q: %v\n", *query, err)
		} else {
			fmt.Printf("\nstructured query %q → %d of %d matches\n",
				*query, len(resp.Results), resp.Total)
			for i, r := range resp.Results {
				fmt.Printf("  %d. %-28s score=%.3f rank=%.4f\n", i+1, r.URL, r.Score, r.Rank)
			}
			for _, ad := range resp.Ads {
				fmt.Printf("  [ad %d] keywords=%v bid=%d\n", ad.ID, ad.Keywords, ad.BidPerClick)
			}
			if resp.Explain != nil {
				fmt.Print(resp.Explain.String())
			}
		}
	}
	_ = adID

	s := engine.Stats()
	fmt.Printf("\n--- deployment summary ---\n")
	fmt.Printf("pages: %d   chain height: %d   honey supply: %d\n", s.Pages, s.Height, s.HoneySupply)
	fmt.Printf("tasks: %d finalized, %d failed, %d open   active bees: %d\n",
		s.TasksFinalized, s.TasksFailed, s.TasksOpen, s.Workers)
	fmt.Printf("creator balance: %d honey (started with 100000)\n", engine.Balance(creator))
}
