// Adsmarket: QueenBee's decentralized advertising economy — advertisers
// escrow budgets in the smart contract, pay per click, and the revenue is
// split between content creators and the worker-bee pool, exactly as the
// paper proposes ("the ad revenue is shared among the content creators
// and worker bees").
package main

import (
	"fmt"
	"log"

	queenbee "repro"
)

func main() {
	engine := queenbee.New(
		queenbee.WithSeed(11),
		queenbee.WithPeers(12),
		queenbee.WithBees(4),
	)

	creator := engine.NewAccount("creator", 1_000)
	nike := engine.NewAccount("shoe-brand", 50_000)
	cola := engine.NewAccount("drink-brand", 50_000)
	user := engine.NewAccount("searcher", 100)

	// The creator publishes review pages.
	pages := map[string]string{
		"dweb://reviews/runners":  "detailed review of marathon running shoes and trail runners",
		"dweb://reviews/hydrate":  "comparing sports drinks for marathon hydration strategy",
		"dweb://reviews/training": "marathon training schedules for beginners",
	}
	for url, text := range pages {
		if err := engine.Publish(creator, url, text, nil); err != nil {
			log.Fatal(err)
		}
	}
	engine.RunUntilIdle()

	// Two advertisers bid on the "marathon" keyword; the higher bid is
	// displayed first.
	shoeAd, err := engine.RegisterAd(nike, []string{"marathon", "shoes"}, 50, 2_000)
	if err != nil {
		log.Fatal(err)
	}
	drinkAd, err := engine.RegisterAd(cola, []string{"marathon", "drinks"}, 30, 1_500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaigns open: shoe ad #%d (bid 50), drink ad #%d (bid 30)\n", shoeAd, drinkAd)

	resp, err := engine.Query("marathon training").All().Limit(5).Run()
	if err != nil {
		log.Fatal(err)
	}
	results, ads := resp.Results, resp.Ads
	fmt.Printf("\nsearch 'marathon training': %d results, %d ads\n", len(results), len(ads))
	for _, ad := range ads {
		fmt.Printf("  ad #%d keywords=%v bid=%d\n", ad.ID, ad.Keywords, ad.BidPerClick)
	}

	// The user clicks the top ad a few times on the top result page.
	creatorStart := engine.Balance(creator)
	for i := 0; i < 5; i++ {
		if err := engine.Click(user, ads[0].ID, results[0].URL); err != nil {
			fmt.Println("click rejected:", err)
			break
		}
	}
	fmt.Printf("\nafter 5 clicks at bid %d:\n", ads[0].BidPerClick)
	fmt.Printf("  creator earned      %d honey (60%% of each click)\n", engine.Balance(creator)-creatorStart)
	fmt.Printf("  advertiser balance  %d honey\n", engine.Balance(nike))
	fmt.Printf("  honey supply        %d (conserved by the contract)\n", engine.Stats().HoneySupply)
}
