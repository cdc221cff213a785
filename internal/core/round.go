package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/contracts"
	"repro/internal/dht"
	"repro/internal/netsim"
)

// This file is the write-side round engine: the concurrent, deterministic
// drive train behind ProcessRound. Each round runs three waves —
//
//  1. commit: every bee fetches content and builds its result on its own
//     goroutine (per-bee compute is independent: own pending map, own
//     DWeb peer, read-locked contract views); commitments are then
//     submitted sequentially in bee order so transaction order is stable;
//  2. reveal: cheap on-chain calls, sequential;
//  3. materialize: bees write their winning immutable segments in a
//     goroutine wave, then the round's contributions are grouped by
//     shard and every touched shard gets exactly ONE pointer
//     read-modify-write (and at most one compaction) no matter how many
//     segments landed on it, plus one global stats bump for the whole
//     round. A round with K segments over S shards costs O(S) mutable
//     DHT round trips, not O(K·S).
//
// Determinism contract: the per-link netsim streams make the same seed
// produce byte-identical DHT state (shard pointers, segments, stats)
// whether the waves fan out or run sequentially
// (Config.ParallelRounds=false). Wave costs fold with Par in slot
// order, mirroring Frontend.loadShardsCtx.

// RoundError is one recorded write-path failure: which bee, which task
// (or shard), at which pipeline stage. The zero Shard value is
// meaningful, so "not shard-scoped" is -1.
type RoundError struct {
	Bee   string
	Task  string // empty for shard- or stats-scoped failures
	Shard int    // -1 when the failure is not shard-scoped
	Stage string // "build" | "decode" | "segment-write" | "shard-append" | "compact" | "stats"
	Err   error
}

// Error implements error.
func (e RoundError) Error() string {
	where := e.Task
	if e.Shard >= 0 {
		where = fmt.Sprintf("shard %d", e.Shard)
	}
	return fmt.Sprintf("core: bee %s: %s %s: %v", e.Bee, e.Stage, where, e.Err)
}

// RoundReceipt reports one ProcessRound: what was materialized, the
// simulated cost of the round's waves, the mutable-DHT write counters
// the batching claims are asserted against, and every write-path error
// the round surfaced (instead of swallowing).
type RoundReceipt struct {
	// Materialized counts tasks whose winning results landed this round
	// (index segments written plus finalized rank tasks).
	Materialized int

	// CommitWave is the commit compute as the bees experienced it — a
	// parallel wave, the slowest bee. CommitSerial is what a sequential
	// driver would have paid (the sum); their ratio is the write-side
	// concurrency speedup BenchmarkIngest reports.
	CommitWave   netsim.Cost
	CommitSerial netsim.Cost
	// MaterializeWave / MaterializeSerial account the materialize phase
	// the same way: segment-write wave, then per-shard pointer wave,
	// then the stats bump.
	MaterializeWave   netsim.Cost
	MaterializeSerial netsim.Cost
	// StoreCost is the content-store wave of the publish step that
	// preceded this round (set by Engine.PublishBatch; zero for plain
	// rounds).
	StoreCost netsim.Cost

	// SegmentWrites counts immutable segment puts; PointerWrites counts
	// shard-pointer read-modify-writes (at most one per touched shard
	// per materialize pass); Compactions counts chain merges; StatsWrites
	// counts global-stats bumps (at most one per pass).
	SegmentWrites int
	PointerWrites int
	Compactions   int
	StatsWrites   int

	// IngestedBytes is the round's new segment bytes (each winning
	// segment counted once, however many shards its terms hash to);
	// CompactedBytes is the merged-segment bytes compaction rewrote. The
	// write-amplification claim E19 tabulates is their ratio over a
	// steady-ingest run: (ingested+compacted)/ingested stays
	// O(log shard bytes) under the tiered policy and grows O(shard
	// bytes) under the monolithic one.
	IngestedBytes  int64
	CompactedBytes int64

	// Errors lists every write-path failure of the round, also recorded
	// on the failing bee's Errs.
	Errors []RoundError
}

// Wave returns the round's total simulated makespan: publish store wave
// (if any), commit wave and materialize wave in sequence.
func (r RoundReceipt) Wave() netsim.Cost {
	return r.StoreCost.Seq(r.CommitWave).Seq(r.MaterializeWave)
}

// Serial returns what a fully sequential driver would have paid for the
// same round.
func (r RoundReceipt) Serial() netsim.Cost {
	return r.StoreCost.Seq(r.CommitSerial).Seq(r.MaterializeSerial)
}

// contribution is one winning index segment's input to the round's
// batched materialization: the shards its terms hash to and its
// first-version document/token counts for the stats bump.
type contribution struct {
	bee     *WorkerBee
	taskID  string
	digest  string
	bytes   int   // encoded segment size (ingested bytes, counted once)
	shards  []int // sorted
	newDocs int
	tokens  uint64
}

// runWave executes fn(0..n-1), concurrently when parallel is set (and
// the wave has more than one leg), sequentially otherwise. Shared by
// the round engine's waves and the query side's shard loads, both gated
// on Config.ParallelRounds. Callers write results into index-addressed
// slots so both execution modes produce identical state.
func runWave(n int, parallel bool, fn func(i int)) {
	if n <= 1 || !parallel {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// forEachNode visits every DHT node in the deployment — DWeb peers
// first, then bee peers — in a fixed order.
func (c *Cluster) forEachNode(fn func(*dht.Node)) {
	for _, p := range c.Peers {
		fn(p.DHT())
	}
	for _, b := range c.Bees {
		fn(b.Peer.DHT())
	}
}

// runDHTWave is runWave for legs that issue DHT traffic. Around a
// parallel wave it freezes inbound-contact learning on every node in
// the deployment: handlers answering one leg's lookups must not mutate
// the routing tables a sibling leg's lookups traverse, or the sibling's
// path — and its cost — would depend on goroutine interleaving. Queued
// contacts are applied after the wave, node by node in deployment
// order, so the tables still converge and do so identically every run.
func (c *Cluster) runDHTWave(n int, fn func(i int)) {
	parallel := c.cfg.ParallelRounds
	if parallel && n > 1 {
		c.forEachNode(func(d *dht.Node) { d.SetDeferLearning(true) })
	}
	runWave(n, parallel, fn)
	if parallel && n > 1 {
		c.forEachNode(func(d *dht.Node) {
			d.SetDeferLearning(false)
			d.FlushLearning()
		})
	}
}

// commitWave fans the bees' commit compute out as one goroutine wave,
// then submits the resulting commitments sequentially in bee order.
func (c *Cluster) commitWave(r *RoundReceipt) {
	n := len(c.Bees)
	commits := make([][]contracts.CommitParams, n)
	costs := make([]netsim.Cost, n)
	errs := make([][]RoundError, n)
	parallel := c.cfg.ParallelRounds
	if parallel {
		// Concurrent bees all fetch the same batch pages; an inline
		// serve-cache Provide would mutate shared provider records
		// mid-wave, making a sibling's FindProviders result — and its
		// cost — depend on goroutine interleaving. Queue the
		// announcements and apply them in bee order after the wave, so
		// every bee fetches against the provider state the wave started
		// with and costs are a pure function of the seed.
		for _, b := range c.Bees {
			b.Peer.SetDeferProvides(true)
		}
	}
	c.runDHTWave(n, func(i int) {
		commits[i], costs[i], errs[i] = c.Bees[i].prepareCommits()
	})
	if parallel {
		for i, b := range c.Bees {
			b.Peer.SetDeferProvides(false)
			costs[i] = costs[i].Seq(b.Peer.FlushProvides())
		}
	}
	for i, b := range c.Bees {
		b.Cost = b.Cost.Seq(costs[i])
		b.Errs = append(b.Errs, errs[i]...)
		r.Errors = append(r.Errors, errs[i]...)
		r.CommitWave = r.CommitWave.Par(costs[i])
		r.CommitSerial = r.CommitSerial.Seq(costs[i])
		for _, params := range commits[i] {
			c.SubmitCall(b.Account, contracts.MethodCommit, params, 0)
		}
	}
}

// materializePass runs one batched materialize phase: a per-bee
// goroutine wave writes the winning immutable segments and collects
// contributions, then the contributions are grouped by shard and each
// touched shard gets one pointer RMW (and at most one compaction) on
// the first contributing bee's DHT node, and finally the whole round's
// stats land in one bump. May run twice per round (the janitor path
// finalizes stuck tasks mid-round); counters and costs accumulate.
func (c *Cluster) materializePass(r *RoundReceipt) {
	n := len(c.Bees)
	contribsBy := make([][]contribution, n)
	counts := make([]int, n)
	costs := make([]netsim.Cost, n)
	errs := make([][]RoundError, n)
	c.runDHTWave(n, func(i int) {
		contribsBy[i], counts[i], costs[i], errs[i] = c.Bees[i].collectWins()
	})

	var collectWave, collectSerial netsim.Cost
	var all []contribution
	for i, b := range c.Bees {
		b.Cost = b.Cost.Seq(costs[i])
		b.Errs = append(b.Errs, errs[i]...)
		r.Errors = append(r.Errors, errs[i]...)
		collectWave = collectWave.Par(costs[i])
		collectSerial = collectSerial.Seq(costs[i])
		r.Materialized += counts[i]
		r.SegmentWrites += len(contribsBy[i])
		all = append(all, contribsBy[i]...)
	}
	for _, ctr := range all {
		r.IngestedBytes += int64(ctr.bytes)
	}

	// Deterministic batch order: contributions sorted by task ID (each
	// task has exactly one designated writer, so IDs are unique), shards
	// ascending. The digest order within a shard pointer and the draw
	// order on every DHT link follow from this, not from goroutine
	// scheduling or map iteration.
	sort.Slice(all, func(i, j int) bool { return all[i].taskID < all[j].taskID })
	digestsByShard := make(map[int][]string)
	writerByShard := make(map[int]*WorkerBee)
	var shardOrder []int
	for _, ctr := range all {
		for _, s := range ctr.shards {
			if _, seen := writerByShard[s]; !seen {
				writerByShard[s] = ctr.bee
				shardOrder = append(shardOrder, s)
			}
			digestsByShard[s] = append(digestsByShard[s], ctr.digest)
		}
	}
	sort.Ints(shardOrder)

	shardCosts := make([]netsim.Cost, len(shardOrder))
	shardWrote := make([]bool, len(shardOrder))
	shardCompacted := make([]bool, len(shardOrder))
	shardBytes := make([]int64, len(shardOrder))
	shardPtrs := make([]ShardPointer, len(shardOrder))
	shardErrs := make([][]RoundError, len(shardOrder))
	// Fan out by WRITER, not by shard: two concurrent legs on the same
	// writer's node would interleave draws on its shared (caller,target)
	// netsim streams, so which leg pays which draw — and the wave's Par
	// latency — would depend on goroutine scheduling. Writers run in
	// parallel (disjoint caller links); each walks its own shards in
	// ascending order, pinning every link's draw sequence.
	var writers []*WorkerBee
	legsByWriter := make(map[*WorkerBee][]int)
	for j, s := range shardOrder {
		w := writerByShard[s]
		if _, seen := legsByWriter[w]; !seen {
			writers = append(writers, w)
		}
		legsByWriter[w] = append(legsByWriter[w], j)
	}
	c.runDHTWave(len(writers), func(wi int) {
		w := writers[wi]
		for _, j := range legsByWriter[w] {
			s := shardOrder[j]
			if c.cfg.MonolithicCompaction {
				// Legacy policy (the E19 control): append in one RMW, then
				// merge the whole chain into one segment past the threshold
				// (a second pointer write when it fires).
				ptr, cost, wrote, err := appendSegmentsToShard(w.Peer.DHT(), s, digestsByShard[s])
				shardCosts[j] = cost
				shardWrote[j] = wrote
				shardPtrs[j] = ptr
				if err != nil {
					shardErrs[j] = append(shardErrs[j], RoundError{Bee: w.Name, Shard: s, Stage: "shard-append", Err: err})
					continue
				}
				ptr, cost, compacted, mergedBytes, err := compactShardFromPtr(w.Peer.DHT(), s, ptr)
				shardCosts[j] = shardCosts[j].Seq(cost)
				shardCompacted[j] = compacted
				shardBytes[j] = mergedBytes
				shardPtrs[j] = ptr
				if err != nil {
					shardErrs[j] = append(shardErrs[j], RoundError{Bee: w.Name, Shard: s, Stage: "compact", Err: err})
				}
				continue
			}
			ptr, cost, wrote, res, err := materializeShardTiered(w.Peer.DHT(), s, c.cfg.NumShards, digestsByShard[s])
			shardCosts[j] = cost
			shardWrote[j] = wrote
			shardCompacted[j] = res.Compacted
			shardBytes[j] = res.CompactedBytes
			shardPtrs[j] = ptr
			if err != nil {
				shardErrs[j] = append(shardErrs[j], RoundError{Bee: w.Name, Shard: s, Stage: "compact", Err: err})
			}
		}
	})
	var shardWave, shardSerial netsim.Cost
	for j, s := range shardOrder {
		w := writerByShard[s]
		w.Cost = w.Cost.Seq(shardCosts[j])
		w.Errs = append(w.Errs, shardErrs[j]...)
		r.Errors = append(r.Errors, shardErrs[j]...)
		shardWave = shardWave.Par(shardCosts[j])
		shardSerial = shardSerial.Seq(shardCosts[j])
		if shardWrote[j] {
			r.PointerWrites++
		}
		if shardCompacted[j] {
			r.Compactions++
			r.CompactedBytes += shardBytes[j]
		}
	}
	c.noteShardTiers(shardOrder, shardWrote, shardPtrs)

	// One stats bump for the whole pass, aggregated across every
	// contribution (re-published pages contribute zero but the version
	// still advances, as the per-task path always did).
	var statsCost netsim.Cost
	if len(all) > 0 {
		var docs int
		var tokens uint64
		for _, ctr := range all {
			docs += ctr.newDocs
			tokens += ctr.tokens
		}
		w := all[0].bee
		cost, err := bumpStats(w.Peer.DHT(), docs, tokens)
		statsCost = cost
		w.Cost = w.Cost.Seq(cost)
		r.StatsWrites++
		if err != nil {
			re := RoundError{Bee: w.Name, Shard: -1, Stage: "stats", Err: err}
			w.Errs = append(w.Errs, re)
			r.Errors = append(r.Errors, re)
		}
	}

	r.MaterializeWave = r.MaterializeWave.Seq(collectWave).Seq(shardWave).Seq(statsCost)
	r.MaterializeSerial = r.MaterializeSerial.Seq(collectSerial).Seq(shardSerial).Seq(statsCost)
}
