package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
	"repro/internal/store"
)

// Frontend is QueenBee's query side: "the HTML+Javascript frontend ...
// responsible for composing the search results by intersecting the
// matched inverted lists, ranking the results, and displaying relevant
// ads." It is a stateless client of the DHT and the chain: it owns a DWeb
// peer for reads and caches immutable segments by content address.
//
// Queries (Search*, Execute) are safe for concurrent use and, with the
// default per-link netsim streams, same-seed results are byte-identical
// whether queries run sequentially or raced across goroutines (see
// docs/serving.md). Both caches are byte-budgeted LRUs so a long-lived
// serving frontend stays bounded under publish churn, and concurrent
// queries needing the same segment digest share one DHT fetch
// (singleflight) instead of issuing duplicates.
type Frontend struct {
	cluster *Cluster
	peer    *store.Peer

	mu          sync.Mutex
	segCache    *lruCache[string, *index.Segment] // digest → segment (immutable)
	chainCache  *lruCache[int, chainEntry]        // shard → merged view of its segment chain
	segFlight   map[string]*segFetch              // digest → in-flight DHT fetch
	chainFlight map[int]*chainFetch               // shard → in-flight chain rebuild
	docURL      map[index.DocID]string
	docURLGen   int // page count when docURL was built

	stats        IndexStats
	statsGen     int // page count when stats were fetched; -1 before the first fetch
	statsFlight  *statsFetch
	statsFetches int64

	// Memoized rank view: PageRanks() copies the whole rank vector and
	// the old scoring path then scanned it for the max on every query —
	// O(corpus) before a single doc was scored. Both are now cached and
	// keyed on the contract's rank generation (not the cached-stats page
	// count: page registrations don't move ranks, and rank epochs can
	// finalize without new pages).
	ranks     map[string]float64
	ranksMax  float64
	ranksGen  uint64
	ranksInit bool

	// wand selects the top-k executor: block-max WAND early termination
	// (the default) or exhaustive candidate scoring
	// (Config.ExhaustiveScoring; the E18 baseline). Results are
	// byte-identical either way; queries snapshot it at start, so
	// flipping it mid-flight never races an executing plan.
	wand atomic.Bool

	// hedge, when set by a FrontendPool, is the buddy frontend this one
	// duplicates its slowest shard fetch onto (hedged reads); hedges
	// counts the duplicates issued, and hedgeBill (also pool-set) books
	// each hedge's simulated time against the buddy's serving load.
	hedge     *Frontend
	hedges    atomic.Int64
	hedgeBill func(time.Duration)
}

// segFetch is one in-flight segment download; duplicate requesters block
// on done and share the result.
type segFetch struct {
	done chan struct{}
	seg  *index.Segment
	cost netsim.Cost
	err  error
}

// statsFetch is one in-flight stats read, singleflighted like segments.
type statsFetch struct {
	done chan struct{}
	st   IndexStats
	cost netsim.Cost
}

// chainFetch is one in-flight chain rebuild (segment fetches + merge)
// for a shard. Concurrent queries that resolved the same digest chain
// share it: the segment fetches already dedup via segFlight, but the
// merge itself is the expensive decode-everything step worth running
// once, not once per racing query.
type chainFetch struct {
	key  string // the digest chain being built
	done chan struct{}
	seg  *index.Segment
	cost netsim.Cost // segment fetches; excludes each caller's own pointer read
	err  error
}

// NewFrontend attaches a frontend to one DWeb peer of the cluster.
func NewFrontend(c *Cluster, peer *store.Peer) *Frontend {
	f := &Frontend{
		cluster:     c,
		peer:        peer,
		segCache:    newLRUCache[string, *index.Segment](c.cfg.SegCacheBytes),
		chainCache:  newLRUCache[int, chainEntry](c.cfg.ChainCacheBytes),
		segFlight:   make(map[string]*segFetch),
		chainFlight: make(map[int]*chainFetch),
		docURL:      make(map[index.DocID]string),
		statsGen:    -1,
	}
	f.wand.Store(!c.cfg.ExhaustiveScoring)
	return f
}

// SetUseBlockMax selects the top-k executor: block-max WAND early
// termination (true) or exhaustive scoring (false). Safe while queries
// are in flight: each query snapshots the option when it starts.
func (f *Frontend) SetUseBlockMax(on bool) { f.wand.Store(on) }

// UseBlockMax reports the currently selected top-k executor.
func (f *Frontend) UseBlockMax() bool { return f.wand.Load() }

// chainEntry caches the merged view of one shard's segment chain, keyed by
// the exact digest chain it was built from. The entry stays valid until
// the shard pointer lists a different chain (a new head digest), so warm
// queries skip both the segment fetches and the re-merge.
type chainEntry struct {
	key string // "," joined segment digests, oldest first
	seg *index.Segment
}

// Result is one ranked search hit.
type Result struct {
	URL     string
	CID     string
	Score   float64
	Rank    float64 // page rank component
	Snippet string  // populated when SearchOptions.Snippets is set
}

// Ad is one displayed advertisement.
type Ad struct {
	ID          uint64
	Keywords    []string
	BidPerClick uint64
}

// ScoreStats counts the ranking stage's work: postings decoded or
// probed, skip blocks passed without decoding, and candidate documents
// never fully scored (block-max early termination). Exhaustive scoring
// reports zero skips; the scaling benchmark and E18 read these to show
// sublinear growth.
type ScoreStats struct {
	PostingsScanned int64
	BlocksSkipped   int64
	DocsSkipped     int64
}

// SearchResponse is the composed answer for one query.
type SearchResponse struct {
	Results []Result
	Ads     []Ad
	Cost    netsim.Cost
	// ScoreStats records the ranking stage's work for this query.
	ScoreStats ScoreStats
	// Terms are the positive analyzed terms (excluded terms drive
	// shard loading but not scoring, ads or snippets).
	Terms []string
	// Total counts every candidate that survived boolean evaluation,
	// before ranking truncated to the requested page.
	Total int
	// Explain is the execution trace; nil unless Query.Explain was set.
	Explain *Explain
	// Degraded is set when the answer was composed from a partial shard
	// wave (Config.DegradedReads); nil on a complete answer.
	Degraded *Degraded
}

// Degraded is the typed warning attached to a partial answer: which
// shards stayed unreachable after retries, the fraction of the wave
// that did load, and the error that failed the first missing shard.
type Degraded struct {
	FailedShards []int
	// Completeness is loaded shards / wave shards, in (0, 1).
	Completeness float64
	Cause        string
}

// Search runs the full frontend pipeline for a conjunctive (AND) query.
// SearchWith (query.go) exposes OR/phrase modes and snippets.
func (f *Frontend) Search(query string, k int) (SearchResponse, error) {
	return f.SearchWith(query, SearchOptions{Mode: ModeAND, K: k})
}

// scoreAndCompose ranks the candidate documents with BM25 × PageRank,
// keeps the requested page (offset/limit over the deterministic total
// order), and fills in results and ads — steps 3–5 of the frontend
// pipeline, shared by every query mode. The budget is checked once
// before the collection-statistics read (the stage's only RPC; ranking
// itself is pure CPU): a spent lifecycle returns ErrDeadlineExceeded
// without composing anything.
//
// Three executors share this stage, all producing byte-identical
// rankings (docs/serving.md "Early termination"):
//
//   - direct (non-nil direct cursor): a bare-term query walks its one
//     posting list block by block, skipping blocks whose block-max bound
//     cannot beat the current top-(offset+limit) threshold;
//   - WAND (useWAND, consistent doc lengths): candidates stream against
//     per-term block cursors with frontier bounds and skip-pointer
//     galloping;
//   - exhaustive (fallback and ablation): every candidate is scored via
//     one forward merge cursor per term — O(postings), not the
//     O(docs·terms·log n) of the per-(doc,term) binary searches this
//     replaced.
func (f *Frontend) scoreAndCompose(bud reqBudget, resp *SearchResponse, terms []string,
	merged map[string]index.PostingList, segsByShard map[int]*index.Segment,
	docs []index.DocID, limit, offset int, useWAND bool, direct *index.TermCursor) error {

	if err := bud.check(resp.Cost.Latency); err != nil {
		return err
	}
	// Collection statistics only shift BM25 constants, so they are
	// cached and refreshed only when the page count changes. The fetch
	// leader always runs to completion (Background ctx): a stats read
	// abandoned mid-flight would cache a zero snapshot for a whole
	// generation and skew every later query's BM25 constants.
	stats, cost := f.cachedStats()
	resp.Cost = resp.Cost.Seq(cost)
	scorer := index.NewScorer(index.CorpusStats{
		DocCount:  max(stats.Docs, 1),
		AvgDocLen: avgDocLen(stats),
	}, f.cluster.cfg.RankWeight)

	ranks, maxRank := f.pageRankView()
	urls := f.docURLView()
	rankOf := func(d index.DocID) float64 { return ranks[urls[d]] }
	avgLen := uint32(avgDocLen(stats))

	// Shards are probed in ascending id order so collisions resolve the
	// same way on every run.
	shardIDs := make([]int, 0, len(segsByShard))
	for sid := range segsByShard {
		shardIDs = append(shardIDs, sid)
	}
	sort.Ints(shardIDs)

	k := offset + limit
	var top []index.ScoredDoc
	var wstats index.WANDStats
	switch {
	case direct != nil:
		// Bare-term fast path: the single shard's postings drive scoring
		// directly, no candidate list materialized. Doc lengths probe the
		// loaded shard segments per doc — with one shard (always, for one
		// term) that is exactly the lens-map value the exhaustive path
		// would have built from the same candidates.
		docLen := func(d index.DocID) uint32 {
			for _, sid := range shardIDs {
				if l, ok := segsByShard[sid].DocLens[d]; ok {
					return l
				}
			}
			return avgLen
		}
		top = index.WANDTopKDirect(direct, scorer, docLen, rankOf, maxRank, k, &wstats)
	default:
		// One DocID→length lookup, built up front: each candidate probes
		// every loaded shard at most once, instead of rescanning the
		// shards for every (doc, term) pair in the scoring loop below.
		// The same pass detects cross-shard disagreement on a doc's
		// length (possible transiently under churn when shard chains
		// re-index a page at different times): block-max bounds are
		// computed from each segment's own lengths and are only safe
		// against scores that use those lengths, so any disagreement
		// falls back to exhaustive scoring for this query.
		lens := make(map[index.DocID]uint32, len(docs))
		lensConsistent := true
		for _, d := range docs {
			have := false
			var first uint32
			for _, sid := range shardIDs {
				l, ok := segsByShard[sid].DocLens[d]
				if !ok {
					continue
				}
				if !have {
					first, have = l, true
					lens[d] = l
					if len(shardIDs) == 1 {
						break
					}
				} else if l != first {
					lensConsistent = false
				}
			}
		}
		docLen := func(d index.DocID) uint32 {
			if l, ok := lens[d]; ok {
				return l
			}
			return avgLen
		}

		if useWAND && lensConsistent {
			cursors := make([]*index.TermCursor, len(terms))
			for i, t := range terms {
				if seg, ok := segsByShard[index.ShardOf(t, f.cluster.cfg.NumShards)]; ok {
					cursors[i] = seg.Cursor(t)
				}
			}
			top = index.WANDTopK(docs, cursors, scorer, docLen, rankOf, maxRank, k, &wstats)
		} else {
			// Exhaustive scoring: every candidate, every term — but via
			// forward merge cursors (candidates and postings are both
			// ascending), not a binary search per (doc, term) pair.
			idx := make([]int, len(terms))
			pls := make([]index.PostingList, len(terms))
			for i, t := range terms {
				pls[i] = merged[t]
			}
			scored := make([]index.ScoredDoc, 0, len(docs))
			for _, d := range docs {
				var text float64
				for ti, pl := range pls {
					j := idx[ti]
					for j < len(pl) && pl[j].Doc < d {
						j++
					}
					idx[ti] = j
					wstats.PostingsScanned++
					if j < len(pl) && pl[j].Doc == d {
						text += scorer.TermScore(pl[j].TF, docLen(d), len(pl))
					}
				}
				scored = append(scored, index.ScoredDoc{Doc: d, Score: scorer.Combine(text, rankOf(d), maxRank)})
			}
			top = index.TopK(scored, k)
		}
	}
	resp.ScoreStats = ScoreStats{
		PostingsScanned: wstats.PostingsScanned,
		BlocksSkipped:   wstats.BlocksSkipped,
		DocsSkipped:     wstats.DocsSkipped,
	}
	if offset >= len(top) {
		top = nil
	} else {
		top = top[offset:]
	}

	for _, sd := range top {
		url := urls[sd.Doc]
		if url == "" {
			continue // unindexed or collision; skip
		}
		rec, ok := f.cluster.QB.Page(url)
		if !ok {
			continue
		}
		resp.Results = append(resp.Results, Result{
			URL:   url,
			CID:   rec.CID,
			Score: sd.Score,
			Rank:  ranks[url],
		})
	}

	for _, ad := range f.cluster.QB.AdsForTerms(terms) {
		resp.Ads = append(resp.Ads, Ad{ID: ad.ID, Keywords: ad.Keywords, BidPerClick: ad.BidPerClick})
		if len(resp.Ads) == 3 {
			break
		}
	}
	return nil
}

// fetchSegmentCtx returns the immutable segment for a digest: LRU cache
// first, then one shared DHT fetch. Concurrent requests for the same
// digest singleflight — duplicates block until the leader's fetch lands
// and share its result and cost (they observed the same simulated wall
// time; the bytes moved on the wire only once and are counted once in the
// network's global stats).
//
// The leader fetches under its own ctx, so a cancelled leader abandons
// the DHT lookup mid-wave; its flight then reports the cancellation and
// caches nothing. A waiter whose own lifecycle is still live does not
// inherit that fate — it retries as the new leader — so one cancelled
// query never fails the innocents coalesced behind it, and the
// singleflight table never wedges on a dead flight.
func (f *Frontend) fetchSegmentCtx(ctx context.Context, digest string) (*index.Segment, netsim.Cost, error) {
	for {
		f.mu.Lock()
		if seg, ok := f.segCache.get(digest); ok {
			f.mu.Unlock()
			return seg, netsim.Cost{}, nil
		}
		if fl, ok := f.segFlight[digest]; ok {
			f.mu.Unlock()
			<-fl.done
			if isCancelled(fl.err) && ctx.Err() == nil {
				continue // the leader's request died, not the fetch: retry
			}
			return fl.seg, fl.cost, fl.err
		}
		fl := &segFetch{done: make(chan struct{})}
		f.segFlight[digest] = fl
		f.mu.Unlock()

		fl.seg, fl.cost, fl.err = readSegmentCtx(ctx, f.peer.DHT(), digest)
		var size int64
		if fl.err == nil {
			size = fl.seg.SizeBytes()
		}
		f.mu.Lock()
		delete(f.segFlight, digest)
		if fl.err == nil {
			f.segCache.add(digest, fl.seg, size)
		}
		f.mu.Unlock()
		close(fl.done)
		return fl.seg, fl.cost, fl.err
	}
}

// loadShardCtx fetches a shard's segment chain and returns its merged
// view. Two cache layers keep warm queries cheap: segments are immutable
// and cached per digest, and the merged chain is cached per shard keyed
// by the digest chain — the pointer read is the only per-query DHT
// traffic until the chain changes. Single-segment chains (the common
// case after compaction) skip merging entirely, so their postings stay
// lazy.
//
// It is one wave leg with a request lifecycle. e0 is the query's
// simulated elapsed time when the wave launched; the leg's own
// sequential steps (pointer read, then each segment fetch) extend it,
// and the budget is re-checked before every step — a spent budget
// abandons the rest of the chain with the partial cost and a typed
// ErrDeadlineExceeded. A leader abandoned mid-chain reports the
// lifecycle error on its flight; waiters whose own budget is still live
// retry as the new leader, so the chain singleflight never wedges and
// never fails an innocent query.
func (f *Frontend) loadShardCtx(bud reqBudget, e0 time.Duration, shard int) (*index.Segment, netsim.Cost, error) {
	if err := bud.check(e0); err != nil {
		return nil, netsim.Cost{}, err
	}
	ptr, cost, err := readShardPointerCtx(bud.context(), f.peer.DHT(), shard)
	if err == dht.ErrNotFound {
		return index.NewSegment(0), cost, nil
	}
	if err != nil {
		return nil, cost, asLifecycle(err)
	}
	key := strings.Join(ptr.Digests, ",")
	for {
		f.mu.Lock()
		ce, cached := f.chainCache.peek(shard)
		switch {
		case cached && ce.key == key:
			f.chainCache.hits++
			f.chainCache.promote(shard)
			f.mu.Unlock()
			return ce.seg, cost, nil
		case cached:
			// The shard head moved on: a real miss, and the stale view must
			// neither serve nor outlive genuinely warm entries.
			f.chainCache.misses++
			f.chainCache.drop(shard)
		default:
			f.chainCache.misses++
		}
		if fl, ok := f.chainFlight[shard]; ok && fl.key == key {
			f.mu.Unlock()
			<-fl.done
			if lifecycleErr(fl.err) && bud.check(e0+cost.Latency) == nil {
				continue // the leader's request died, not the chain: retry
			}
			return fl.seg, cost.Seq(fl.cost), fl.err
		}
		fl := &chainFetch{key: key, done: make(chan struct{})}
		f.chainFlight[shard] = fl
		f.mu.Unlock()

		segs := make([]*index.Segment, 0, len(ptr.Digests))
		for _, digest := range ptr.Digests {
			// The chain's fetches are sequential within this leg, so the
			// leg-local elapsed time grows step by step — this is the
			// "cancelled between shard fetches" cut point.
			if err := bud.check(e0 + cost.Latency + fl.cost.Latency); err != nil {
				fl.err = err
				break
			}
			seg, c2, err := f.fetchSegmentCtx(bud.context(), digest)
			fl.cost = fl.cost.Seq(c2)
			if err != nil {
				fl.err = asLifecycle(err)
				break
			}
			segs = append(segs, seg)
		}
		var size int64
		if fl.err == nil {
			fl.seg = index.Merge(segs)
			size = fl.seg.SizeBytes()
		}
		f.mu.Lock()
		if f.chainFlight[shard] == fl {
			delete(f.chainFlight, shard)
		}
		if fl.err == nil {
			f.chainCache.add(shard, chainEntry{key: key, seg: fl.seg}, size)
		}
		f.mu.Unlock()
		close(fl.done)
		return fl.seg, cost.Seq(fl.cost), fl.err
	}
}

// loadShardsCtx resolves a query's distinct shards as one concurrent
// fetch wave: the independent DHT lookups run on their own goroutines
// (sequentially when Config.ParallelRounds is off), and the per-link
// netsim streams keep same-seed results and costs reproducible no
// matter how the fetches interleave. The wave's cost folds Par in shard
// order — the slowest shard, not the sum.
//
// On failure every fetch was still in flight, so the full wave cost is
// reported alongside the error of the lowest-indexed failing shard —
// Explain's shard-wave accounting stays consistent for failed waves
// (asserted in plan_test.go). The map still carries every shard that DID
// load, so callers with DegradedReads enabled can compose a partial
// answer instead of discarding the wave.
//
// The wave carries a request lifecycle and, on pool frontends, hedged
// reads. Every leg starts at the wave's base elapsed time e0 (parallel
// legs share a launch instant; sequential steps inside a leg extend
// it), and a spent budget abandons each leg's remaining steps — the
// wave then reports the partial cost of the work that ran and a typed
// ErrDeadlineExceeded.
func (f *Frontend) loadShardsCtx(bud reqBudget, e0 time.Duration, shards []int) (map[int]*index.Segment, netsim.Cost, error) {
	segs := make([]*index.Segment, len(shards))
	costs := make([]netsim.Cost, len(shards))
	errs := make([]error, len(shards))
	runWave(len(shards), f.cluster.cfg.ParallelRounds, func(i int) {
		segs[i], costs[i], errs[i] = f.loadShardCtx(bud, e0, shards[i])
	})
	f.hedgeLeg(bud, e0, shards, segs, costs, errs)
	out := make(map[int]*index.Segment, len(shards))
	var cost netsim.Cost
	var firstErr error
	for i := range shards {
		cost = cost.Par(costs[i])
		if errs[i] != nil {
			// A spent lifecycle outranks shard errors: the query was
			// stopped, not the index broken.
			if firstErr == nil || (lifecycleErr(errs[i]) && !lifecycleErr(firstErr)) {
				firstErr = fmt.Errorf("shard %d: %w", shards[i], errs[i])
			}
			continue
		}
		out[shards[i]] = segs[i]
	}
	return out, cost, firstErr
}

// hedgeLeg duplicates one leg of a completed shard wave on the
// buddy frontend (hedged reads, pool frontends only): the fetch reruns
// against the buddy's own peer, caches and links, the first reply wins
// the latency, and both replies pay their bytes and messages. The
// hedged leg is the lowest-indexed FAILED leg when the wave has one —
// the duplicate is the retry that can actually rescue the wave
// (single-frontend fault tolerance) — and otherwise the slowest
// successful leg, where first-reply-wins shaves the tail. The results
// are byte-identical either way (both frontends read the same
// immutable DHT state), so hedging shifts only costs, never responses.
// Waves stopped by the lifecycle are not hedged: the client is gone.
func (f *Frontend) hedgeLeg(bud reqBudget, e0 time.Duration, shards []int, segs []*index.Segment, costs []netsim.Cost, errs []error) {
	if f.hedge == nil || len(shards) == 0 {
		return
	}
	slowest, failed := 0, -1
	for i := range shards {
		if lifecycleErr(errs[i]) {
			return
		}
		if errs[i] != nil && failed < 0 {
			failed = i
		}
		if costs[i].Latency > costs[slowest].Latency {
			slowest = i
		}
	}
	if failed >= 0 {
		slowest = failed
	} else if costs[slowest].Latency == 0 {
		// Every leg was free: there is no latency to win, so a hedge
		// would only burn duplicate DHT traffic.
		return
	}
	hseg, hcost, herr := f.hedge.loadShardCtx(bud, e0, shards[slowest])
	if lifecycleErr(herr) {
		return // the lifecycle ended mid-hedge; keep the primary leg as-is
	}
	f.hedges.Add(1)
	if f.hedgeBill != nil {
		// The duplicate ran on the buddy's device: its simulated time is
		// the buddy's serving load, not this frontend's.
		f.hedgeBill(hcost.Latency)
	}
	pc := costs[slowest]
	merged := netsim.Cost{Bytes: pc.Bytes + hcost.Bytes, Msgs: pc.Msgs + hcost.Msgs}
	switch {
	case errs[slowest] == nil && herr == nil:
		merged.Latency = min(pc.Latency, hcost.Latency)
	case errs[slowest] != nil && herr == nil:
		segs[slowest], errs[slowest] = hseg, nil
		merged.Latency = hcost.Latency
	case errs[slowest] == nil:
		merged.Latency = pc.Latency
	default:
		// Both replies failed; the caller observes the later failure.
		merged.Latency = max(pc.Latency, hcost.Latency)
	}
	costs[slowest] = merged
}

// cachedStats returns the collection statistics, re-reading from the DHT
// only when the registered page count changed since the last fetch. The
// fetched state is an explicit generation (-1 = never fetched), not a
// "Docs > 0" sentinel — an empty corpus is a valid cached answer, not a
// reason to hit the DHT on every query.
// Concurrent queries arriving on a stale generation share one DHT read
// (the same singleflight shape as fetchSegmentCtx).
func (f *Frontend) cachedStats() (IndexStats, netsim.Cost) {
	n := f.cluster.QB.PageCount()
	f.mu.Lock()
	if n == f.statsGen {
		st := f.stats
		f.mu.Unlock()
		return st, netsim.Cost{}
	}
	if fl := f.statsFlight; fl != nil {
		f.mu.Unlock()
		<-fl.done
		return fl.st, fl.cost
	}
	fl := &statsFetch{done: make(chan struct{})}
	f.statsFlight = fl
	f.mu.Unlock()
	fl.st, fl.cost = readStats(f.peer.DHT())
	f.mu.Lock()
	f.stats, f.statsGen = fl.st, n
	f.statsFlight = nil
	f.statsFetches++
	f.mu.Unlock()
	close(fl.done)
	return fl.st, fl.cost
}

// pageRankView returns the rank vector and its maximum, memoized on the
// contract's rank generation: queries between rank-epoch finalizations
// reuse one snapshot instead of copying and scanning the whole O(corpus)
// vector each time. The generation is read before the vector, so a
// concurrent finalization can at worst store fresh ranks under a stale
// generation — the next query simply refetches. The returned map is a
// private snapshot, never mutated, so callers may read it without f.mu.
func (f *Frontend) pageRankView() (map[string]float64, float64) {
	gen := f.cluster.QB.RankGen()
	f.mu.Lock()
	if f.ranksInit && f.ranksGen == gen {
		m, mx := f.ranks, f.ranksMax
		f.mu.Unlock()
		return m, mx
	}
	f.mu.Unlock()
	ranks := f.cluster.QB.PageRanks()
	maxRank := 0.0
	for _, r := range ranks {
		if r > maxRank {
			//detlint:ignore maprange pure max over float64 ranks; the reduced value is iteration-order independent
			maxRank = r
		}
	}
	f.mu.Lock()
	f.ranks, f.ranksMax, f.ranksGen, f.ranksInit = ranks, maxRank, gen, true
	f.mu.Unlock()
	return ranks, maxRank
}

// CacheStats is a point-in-time snapshot of the frontend's caches.
type CacheStats struct {
	SegBytes, SegBudget     int64
	SegEntries              int
	SegHits, SegMisses      int64
	ChainBytes, ChainBudget int64
	ChainEntries            int
	ChainHits, ChainMisses  int64
	StatsFetches            int64
}

// Add accumulates another snapshot into c — the aggregation a pool (or
// a serving surface) runs across its frontends' independent caches.
// Budgets sum too: the total memory the tier may hold.
func (c *CacheStats) Add(o CacheStats) {
	c.SegBytes += o.SegBytes
	c.SegBudget += o.SegBudget
	c.SegEntries += o.SegEntries
	c.SegHits += o.SegHits
	c.SegMisses += o.SegMisses
	c.ChainBytes += o.ChainBytes
	c.ChainBudget += o.ChainBudget
	c.ChainEntries += o.ChainEntries
	c.ChainHits += o.ChainHits
	c.ChainMisses += o.ChainMisses
	c.StatsFetches += o.StatsFetches
}

// CacheStatsSnapshot reports cache occupancy and traffic counters —
// queenbeed's /healthz surfaces it, and the churn tests assert the
// byte budgets hold.
func (f *Frontend) CacheStatsSnapshot() CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return CacheStats{
		SegBytes:     f.segCache.bytes(),
		SegBudget:    f.segCache.budget,
		SegEntries:   f.segCache.len(),
		SegHits:      f.segCache.hits,
		SegMisses:    f.segCache.misses,
		ChainBytes:   f.chainCache.bytes(),
		ChainBudget:  f.chainCache.budget,
		ChainEntries: f.chainCache.len(),
		ChainHits:    f.chainCache.hits,
		ChainMisses:  f.chainCache.misses,
		StatsFetches: f.statsFetches,
	}
}

// refreshDocURLs rebuilds the DocID→URL map when new pages registered.
func (f *Frontend) refreshDocURLs() {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.cluster.QB.PageCount()
	if n == f.docURLGen {
		return
	}
	f.docURL = make(map[index.DocID]string, n)
	for _, url := range f.cluster.QB.Pages() {
		f.docURL[index.DocIDOf(url)] = url
	}
	f.docURLGen = n
}

// docURLView refreshes and returns the current DocID→URL map. The map
// is replaced wholesale on refresh, never mutated in place, so readers
// may keep the returned reference without holding f.mu.
func (f *Frontend) docURLView() map[index.DocID]string {
	f.refreshDocURLs()
	f.mu.Lock()
	m := f.docURL
	f.mu.Unlock()
	return m
}

// FetchResult downloads and verifies the content of a search result.
func (f *Frontend) FetchResult(r Result) ([]byte, netsim.Cost, error) {
	cid, err := cidFromHex(r.CID)
	if err != nil {
		return nil, netsim.Cost{}, err
	}
	return f.peer.Fetch(cid)
}

func avgDocLen(st IndexStats) float64 {
	if st.Docs == 0 {
		return 1
	}
	return float64(st.Tokens) / float64(st.Docs)
}

// TopRankedPages lists the highest page-rank URLs from chain state.
func (f *Frontend) TopRankedPages(n int) []string {
	ranks := f.cluster.QB.PageRanks()
	type pr struct {
		url  string
		rank float64
	}
	all := make([]pr, 0, len(ranks))
	for u, r := range ranks {
		all = append(all, pr{u, r})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].rank != all[j].rank {
			return all[i].rank > all[j].rank
		}
		return all[i].url < all[j].url
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].url
	}
	return out
}
