package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "Block-max WAND: scoring work vs corpus scale, exhaustive vs early-terminated",
		Claim: "decentralized search stays affordable at web scale only if a frontend can answer top-k queries without touching most of the index: block-max skip data keeps postings scanned per query near-flat while the corpus grows 100x, with results byte-identical to exhaustive scoring",
		Run:   runE18,
	})
}

// e18Scale holds one corpus scale's per-query averages for one mode.
type e18Scale struct {
	scanned   float64
	skipped   float64 // blocks
	docsSkip  float64
	simMs     float64
	identical bool // WAND result lists matched exhaustive ones exactly
}

// add accumulates one query's scoring work and simulated latency.
func (s *e18Scale) add(r core.SearchResponse) {
	s.scanned += float64(r.ScoreStats.PostingsScanned)
	s.skipped += float64(r.ScoreStats.BlocksSkipped)
	s.docsSkip += float64(r.ScoreStats.DocsSkipped)
	s.simMs += float64(r.Cost.Latency) / 1e6
}

// e18Replay indexes an ndocs corpus as one batch (one v3 segment per
// shard) and replays the top-10 query workload through two frontends,
// on peers 0 and 1, alternating per query. It returns each frontend's
// responses in query order. With exhaustive set, the cluster runs the
// Config.ExhaustiveScoring oracle instead of block-max WAND.
func e18Replay(seed uint64, ndocs int, exhaustive bool) (peer0, peer1 []core.SearchResponse) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.NumPeers = 12
	cfg.NumBees = 3
	cfg.ExhaustiveScoring = exhaustive
	c := core.NewCluster(cfg)
	owner := c.NewAccount("e18-owner", 1<<40)
	c.Seal()

	corp := corpus.Generate(corpus.Config{
		Seed:       seed,
		NumDocs:    ndocs,
		VocabSize:  2000,
		ZipfS:      1.0,
		MeanDocLen: 40,
		MeanLinks:  3,
	})
	pages := make([]core.BatchPage, len(corp.Docs))
	for i, d := range corp.Docs {
		pages[i] = core.BatchPage{URL: d.URL, Text: d.Text, Links: d.Links}
	}
	if _, err := c.IndexBatch(owner, pages); err != nil {
		panic(fmt.Sprintf("E18 index (%d docs): %v", ndocs, err))
	}
	c.RunUntilIdle(50)

	fes := []*core.Frontend{core.NewFrontend(c, c.Peers[0]), core.NewFrontend(c, c.Peers[1])}
	resps := make([][]core.SearchResponse, len(fes))
	for _, q := range corp.Queries(seed, 16, 1) {
		for i, fe := range fes {
			r, err := fe.Execute(core.Query{Raw: q.Text, Mode: core.PlanAll, Limit: 10})
			if err != nil {
				panic(fmt.Sprintf("E18 query %q (exhaustive=%v): %v", q.Text, exhaustive, err))
			}
			resps[i] = append(resps[i], r)
		}
	}
	return resps[0], resps[1]
}

// e18Run replays the same top-10 query workload on two same-seed
// clusters, one on the block-max path and one forced exhaustive, and
// returns per-query averages for both and whether every result list was
// identical. The WAND row is the default cluster's peer-0 frontend, the
// exhaustive row the exhaustive cluster's peer-1 frontend: the scoring
// mode never changes RPC traffic, so each frontend sees the network
// state it would have seen had both run side by side in one cluster.
func e18Run(seed uint64, ndocs int) (wand, exhaustive e18Scale) {
	wrs, _ := e18Replay(seed, ndocs, false)
	_, ers := e18Replay(seed, ndocs, true)
	identical := true
	for i, wr := range wrs {
		er := ers[i]
		if wr.Total != er.Total || !slices.Equal(wr.Results, er.Results) {
			identical = false
		}
		wand.add(wr)
		exhaustive.add(er)
	}
	n := float64(len(wrs))
	for _, s := range []*e18Scale{&wand, &exhaustive} {
		s.scanned /= n
		s.skipped /= n
		s.docsSkip /= n
		s.simMs /= n
		s.identical = identical
	}
	return wand, exhaustive
}

// runE18 compares exhaustive scoring against block-max WAND at three
// corpus scales. The reading that matters: the exhaustive row's
// postings-scanned column grows ~linearly with the corpus while the
// WAND row stays near-flat — and the "identical" column stays true,
// because early termination is a work optimization, never a ranking
// change (TestE18ResultsIdentical asserts it).
func runE18(seed uint64) []*metrics.Table {
	table := metrics.NewTable(
		"E18 — top-10 scoring work vs corpus scale, exhaustive vs block-max WAND (16 single-term queries)",
		"docs", "mode", "postings scanned/q", "blocks skipped/q", "docs skipped/q", "sim ms/q", "identical results")
	for _, ndocs := range []int{48, 480, 4800} {
		w, ex := e18Run(seed, ndocs)
		table.AddRow(ndocs, "exhaustive", fmt.Sprintf("%.1f", ex.scanned),
			fmt.Sprintf("%.1f", ex.skipped), fmt.Sprintf("%.1f", ex.docsSkip),
			fmt.Sprintf("%.1f", ex.simMs), ex.identical)
		table.AddRow(ndocs, "wand", fmt.Sprintf("%.1f", w.scanned),
			fmt.Sprintf("%.1f", w.skipped), fmt.Sprintf("%.1f", w.docsSkip),
			fmt.Sprintf("%.1f", w.simMs), w.identical)
	}
	return []*metrics.Table{table}
}
