package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	queenbee "repro"
)

// Workload sizes. Op counts scale with --seconds so one run does a fixed,
// seeded sequence of ops: both sides of a comparison end in the same
// state, and a faster build is never handed a bigger index.
const (
	serveDocs       = 3000 // pages in the serving index
	pubDocs         = 1500 // pages in serve-publish's index (see serveWorkload)
	serveBatch      = 64   // pages per set-up crawl round (queenbeed's -max-batch-pages)
	servePool       = 1000 // distinct queries
	serveQPS        = 1500 // queries per second of --seconds, about serve's rate on 2 vCPUs
	pubQueries      = 250  // serve-publish: queries per publish round
	pubNew, pubRev  = 8, 8 // serve-publish batch: new pages, revisions
	crawlDocsPerSec = 300  // crawl corpus pages per second of --seconds
	crawlSeedFrac   = 5    // one crawl seed per this many corpus pages
	crawlQPS        = 1000 // queries over the crawled index per second of --seconds
	crawlProbes     = 100  // exact-URL probes among them
	rankEvery       = 8    // crawl batches between delta rank epochs
	serveSetupReps  = 3
	crawlSetupReps  = 7
	minSetupSeconds = 0.5 // cheap set-ups repeat until this much is timed
	maxSetupReps    = 25
)

// deploySeed seeds the simulated deployment itself: node placement,
// link latencies, fetch delays. It is configuration, not input, so it
// stays fixed while --seed varies the corpus, the crawl seeds and the
// query and publish streams the engine is fed.
const deploySeed = 1

// setup boots the deployment reps times (more while the timed total is
// under minSetupSeconds) and keeps the last engine. setup_s is the
// median. Each repetition starts from a collected heap; heap_mib counts
// from the live heap before the first, when only the inputs are held.
func (r *run) setup(reps int, boot func() bool) bool {
	total := 0.0
	r.heapBase = liveHeap()
	for rep := 0; rep < reps || (total < minSetupSeconds && rep < maxSetupReps); rep++ {
		r.rep = rep
		r.e, r.owner = nil, nil
		r.epochMS, r.deltaEpochs = r.epochMS[:0], 0
		r.tr.reset()
		runtime.GC()
		t0 := time.Now()
		ok := boot()
		s := time.Since(t0).Seconds()
		if !ok {
			return false
		}
		r.setupS = append(r.setupS, s)
		total += s
	}
	r.rep = -1
	return true
}

// servingEngine boots queenbeed's serving configuration: pool of 4
// frontends, hedged and degraded reads. Maintenance runs as explicit
// passes (RunMaintenance), which is the call -maintenance makes after
// every round.
func servingEngine() *queenbee.Engine {
	return queenbee.New(
		queenbee.WithSeed(deploySeed),
		queenbee.WithPeers(16),
		queenbee.WithBees(4),
		queenbee.WithFrontendPool(4),
		queenbee.WithHedgedReads(true),
		queenbee.WithDegradedReads(true),
	)
}

// serveWorkload runs serve and, with publish set, serve-publish. Set-up
// crawls the corpus into a serving deployment (queenbeed -crawl), ranks
// it, runs one maintenance pass and warms the caches with every
// distinct query; the run then issues the query stream from the
// closed-loop clients, with a publisher driving rounds through the gate
// when rounds > 0.
func serveWorkload(r *run, seconds int, publish bool) {
	docs, rounds, queries := serveDocs, 0, serveQPS*seconds
	if publish {
		// Two rounds per second, 250 queries each. A round
		// stalls exactly two queries (one per client): 8 per 1000-query
		// block, fewer than the 10 a p99 leaves beyond it. About one
		// query in fifty waits for a segment fetch and shard reads miss
		// the chain cache about 0.12 times per query, both well above
		// 1%. So neither p99 sits on a boundary between regimes.
		// The index is half serve's: each round's maintenance pass
		// re-provides every record, about 1 s at 1500 pages and 3 s at
		// 4000, which would stretch a run's 20 rounds past its budget.
		docs, rounds = pubDocs, max(1, seconds*2)
		queries = pubQueries * (rounds + 1)
	}
	c := genCorpus(r.seed, docs+rounds*pubNew)
	pages := corpusPages(c.Docs[:docs])
	seeds := make([]string, len(pages))
	for i, p := range pages {
		seeds[i] = p.URL
	}
	pool, stream := genQueries(r.seed, "serve-queries", pages, servePool, queries)
	var batches [][]queenbee.Page
	if publish {
		batches = publishBatches(c, r.seed, docs, rounds, pubNew, pubRev)
	}
	orc := newOracle()
	orc.publish(0, pages)
	r.specs = pool
	warm := make([]int, len(pool)) // warm-up: every distinct query once
	for i := range warm {
		warm[i] = i
	}

	ok := r.setup(serveSetupReps, func() bool {
		r.e = servingEngine()
		r.tr.wrap(r.e)
		r.owner = r.e.NewAccount("creator", 1_000_000)
		if !r.crawl(pages, seeds, crawlOpts{batch: serveBatch, rankEvery: rankEvery, rankParts: 4}) {
			return false
		}
		r.rankEpoch(4)
		r.maintain()
		r.queryPhase(pool, warm, nil, orc, false)
		return !r.wedged
	})
	if !ok {
		return
	}
	r.queryPhase(pool, stream, batches, orc, true)
	r.check(orc)
}

// crawlWorkload crawls a fresh corpus with near-duplicate mirrors from a
// seeded sample of its pages under library defaults, then serves
// queries and exact-URL probes over the crawled index from cold caches.
func crawlWorkload(r *run, seconds int) {
	docs := crawlDocsPerSec * seconds
	c := genCorpus(r.seed, docs)
	pages := mirrorWeb(c, r.seed, docs/10)
	seeds := sampleSeeds(r.seed, pages[:docs], docs/crawlSeedFrac)
	reached := reach(pages, seeds)

	ok := r.setup(crawlSetupReps, func() bool {
		r.e = queenbee.New(queenbee.WithSeed(deploySeed))
		r.tr.wrap(r.e)
		r.owner = r.e.NewAccount("crawler", 1_000_000)
		return true
	})
	if !ok || !r.crawl(pages, seeds, crawlOpts{rankEvery: rankEvery}) {
		return
	}
	st := r.crawls[len(r.crawls)-1].stats
	if got := st.Published + st.Deduped + st.FetchFailed + st.Dangling; got != reached {
		r.fail("crawl: published %d + deduped %d + failed %d + dangling %d = %d, but %d pages are reachable",
			st.Published, st.Deduped, st.FetchFailed, st.Dangling, got, reached)
	}
	if st.Deduped == 0 {
		r.fail("crawl: no mirror page was deduplicated")
	}

	// The pages the contract registered are the index's ground truth;
	// they must be exactly as many as the crawl published.
	byURL := make(map[string]queenbee.Page, len(pages))
	for _, p := range pages {
		byURL[p.URL] = p
	}
	var published []queenbee.Page
	for _, u := range r.e.Cluster.QB.Pages() {
		p, ok := byURL[u]
		if !ok {
			r.fail("crawl: registered page %s is not in the crawled web", u)
			continue
		}
		published = append(published, p)
	}
	if len(published) != st.Published {
		r.fail("crawl: %d pages registered, crawl reports %d published", len(published), st.Published)
	}
	if len(published) == 0 {
		return
	}
	orc := newOracle()
	orc.publish(0, published)
	pool, stream := genQueries(r.seed, "crawl-queries", published, servePool, crawlQPS*seconds)
	for _, p := range probeQueries(r.seed, published, crawlProbes) {
		stream = append(stream, len(pool))
		pool = append(pool, p)
	}
	r.specs = pool
	r.queryPhase(pool, stream, nil, orc, true)
	r.check(orc)
}

// reach counts the URLs a link walk from seeds discovers, dangling
// links included.
func reach(pages []queenbee.Page, seeds []string) int {
	byURL := make(map[string]queenbee.Page, len(pages))
	for _, p := range pages {
		byURL[p.URL] = p
	}
	seen := make(map[string]bool)
	queue := append([]string(nil), seeds...)
	for _, s := range seeds {
		seen[s] = true
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, l := range byURL[u].Links {
			if !seen[l] {
				seen[l] = true
				queue = append(queue, l)
			}
		}
	}
	return len(seen)
}

// check validates every recorded answer once the timed window is over.
func (r *run) check(orc *oracle) {
	bad := checkAnswers(orc, r.specs, r.answers)
	idx := make([]int, 0, len(bad))
	for i := range bad {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		r.fail("%s", bad[i])
	}
	if len(r.answers) == 0 {
		r.fail("no query answered")
	}
}

var workloads = map[string]func(r *run, seconds int){
	"serve":         func(r *run, s int) { serveWorkload(r, s, false) },
	"serve-publish": func(r *run, s int) { serveWorkload(r, s, true) },
	"crawl":         crawlWorkload,
}

func workloadNames() string {
	return fmt.Sprint([]string{"serve", "crawl", "serve-publish"})
}
