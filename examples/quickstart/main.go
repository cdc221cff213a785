// Quickstart: the smallest complete QueenBee session — publish pages
// through the smart contract, let the worker bees index them, search
// with both the one-line facade and the structured query builder, and
// fetch the tamper-proof content back.
package main

import (
	"fmt"
	"log"

	queenbee "repro"
)

func main() {
	// Boot a small simulated deployment: 12 DWeb devices, 3 worker bees.
	engine := queenbee.New(
		queenbee.WithSeed(42),
		queenbee.WithPeers(12),
		queenbee.WithBees(3),
	)

	// A content creator with some honey.
	alice := engine.NewAccount("alice", 1_000)

	// Publish: content goes to the DWeb store, the URL→CID binding and
	// the index task go on chain. No crawler will ever visit these pages —
	// the publish event itself drives indexing.
	pages := []struct{ url, text string }{
		{"dweb://alice/honey-guide", "A practical guide to harvesting honey from decentralized hives."},
		{"dweb://alice/wax-guide", "Harvesting wax combs without disturbing the honey stores."},
		{"dweb://bob/beekeeping", "Beekeeping basics: hives, honey flows, and seasonal care."},
	}
	for _, p := range pages {
		if err := engine.Publish(alice, p.url, p.text, nil); err != nil {
			log.Fatal(err)
		}
	}

	// Worker bees pick up the index tasks, vote on the results by
	// commit-reveal, and materialize the winning segments into the DHT.
	engine.RunUntilIdle()

	// Search from any device.
	found, err := engine.Query("harvesting honey").All().Limit(10).Run()
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range found.Results {
		fmt.Printf("%d. %s (score %.3f)\n", i+1, r.URL, r.Score)
	}

	// The structured query builder speaks a full boolean language —
	// uppercase OR/AND, '-' exclusions, "quoted phrases", site: URL
	// prefix filters — with pagination and an execution trace.
	resp, err := engine.Query(`honey -wax site:dweb://alice/`).
		Page(1, 5).
		Explain().
		Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("structured query → %d of %d matches\n", len(resp.Results), resp.Total)
	for i, r := range resp.Results {
		fmt.Printf("%d. %s (score %.3f)\n", i+1, r.URL, r.Score)
	}
	fmt.Print(resp.Explain)

	// Fetch the content back — hash-verified end to end.
	content, err := engine.Fetch(found.Results[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("content:", content)

	s := engine.Stats()
	fmt.Printf("pages=%d tasks=%d height=%d supply=%d\n",
		s.Pages, s.TasksFinalized, s.Height, s.HoneySupply)
}
