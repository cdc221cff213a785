package queenbee

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/index"
)

// ingestWorkload drives one mixed write-side workload against an
// engine: a batch publish, individual publishes, a batch republish
// (freshness + stats dedup) and enough rounds to drain every task.
func ingestWorkload(tb testing.TB, e *Engine, seed uint64) {
	tb.Helper()
	owner := e.NewAccount("ingest-owner", 10_000_000)
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = seed
	ccfg.NumDocs = 18
	corp := corpus.Generate(ccfg)

	// The first 12 documents land as one batch → one index task.
	batch := make([]Page, 0, 12)
	for _, d := range corp.Docs[:12] {
		batch = append(batch, Page{URL: d.URL, Text: d.Text, Links: d.Links})
	}
	if rr, err := e.PublishBatch(owner, batch); err != nil {
		tb.Fatal(err)
	} else if len(rr.Errors) > 0 {
		tb.Fatalf("batch round errors: %v", rr.Errors)
	}
	// The rest publish individually — many tasks in shared rounds.
	for _, d := range corp.Docs[12:] {
		if err := e.Publish(owner, d.URL, d.Text, d.Links); err != nil {
			tb.Fatal(err)
		}
	}
	// Republish two pages (Seq 2) in a second batch.
	if _, err := e.PublishBatch(owner, []Page{
		{URL: corp.Docs[0].URL, Text: corp.Docs[0].Text + " freshly revised"},
		{URL: corp.Docs[1].URL, Text: corp.Docs[1].Text + " also revised"},
	}); err != nil {
		tb.Fatal(err)
	}
	e.RunUntilIdle()
}

// dhtWriteState serializes every write-side DHT record of a deployment:
// each shard's pointer record, every linked segment's raw bytes (by
// digest) and the global stats record. This is the state the write-side
// determinism contract covers.
func dhtWriteState(tb testing.TB, e *Engine) string {
	tb.Helper()
	d := e.Cluster.Peers[1].DHT()
	state := struct {
		Shards map[int]json.RawMessage
		Segs   map[string]string
		Stats  json.RawMessage
	}{Shards: map[int]json.RawMessage{}, Segs: map[string]string{}}

	numShards := e.Cluster.Config().NumShards
	for shard := 0; shard < numShards; shard++ {
		val, _, _, err := d.Get(dht.KeyOfString(index.ShardPointerKey(shard)))
		if err != nil {
			continue // untouched shard
		}
		state.Shards[shard] = append(json.RawMessage(nil), val...)
		var ptr struct{ Digests []string }
		if err := json.Unmarshal(val, &ptr); err != nil {
			tb.Fatalf("shard %d: corrupt pointer %q: %v", shard, val, err)
		}
		for _, dg := range ptr.Digests {
			seg, _, err := d.GetImmutable(dht.KeyOfString(index.SegmentKey(dg)))
			if err != nil {
				tb.Fatalf("segment %s unreachable: %v", dg[:8], err)
			}
			state.Segs[dg] = string(seg)
		}
	}
	if val, _, _, err := d.Get(dht.KeyOfString(core.StatsKey)); err == nil {
		state.Stats = append(json.RawMessage(nil), val...)
	}
	out, err := json.Marshal(state)
	if err != nil {
		tb.Fatal(err)
	}
	return string(out)
}

// TestWriteDeterminismSoak is the write-side determinism contract: the
// same seed and workload must leave byte-identical DHT state — shard
// pointers, segment bytes, stats — whether the round engine fans its
// waves out across goroutines (the default) or runs them sequentially
// (the serialWaves oracle). Runs under -race in CI and inside the
// -count=2 determinism re-run. Costs are exempt: concurrent writers
// sharing a link may interleave draws, results may not.
func TestWriteDeterminismSoak(t *testing.T) {
	const seed = 11
	parallel := New(WithSeed(seed), WithPeers(10), WithBees(4))
	sequential := New(WithSeed(seed), WithPeers(10), WithBees(4), serialWaves)
	ingestWorkload(t, parallel, seed)
	ingestWorkload(t, sequential, seed)

	if got, want := dhtWriteState(t, parallel), dhtWriteState(t, sequential); got != want {
		t.Fatalf("DHT state diverged between parallel and sequential rounds:\nparallel   %s\nsequential %s", got, want)
	}

	// And the query side sees identical answers over that state.
	for _, q := range []string{"the", "document"} {
		rp, errP := parallel.Query(q).Any().Limit(10).Run()
		rs, errS := sequential.Query(q).Any().Limit(10).Run()
		if (errP == nil) != (errS == nil) {
			t.Fatalf("query %q error diverged: %v vs %v", q, errP, errS)
		}
		if errP != nil {
			continue
		}
		if canonical(t, rp) != canonical(t, rs) {
			t.Fatalf("query %q diverged:\nparallel   %s\nsequential %s", q, canonical(t, rp), canonical(t, rs))
		}
	}
}

// TestWriteDeterminismSameSeedTwice re-runs the parallel engine on one
// seed and asserts the DHT state reproduces run-over-run — goroutine
// scheduling must never leak into written state.
func TestWriteDeterminismSameSeedTwice(t *testing.T) {
	build := func() string {
		e := New(WithSeed(23), WithPeers(10), WithBees(4))
		ingestWorkload(t, e, 23)
		return dhtWriteState(t, e)
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("same-seed runs diverged:\nfirst  %s\nsecond %s", a, b)
	}
}

// TestIngestPipelineDeterminism is the streaming-ingest determinism
// contract (ISSUE 7 acceptance): a pipelined crawl — real fetch worker
// goroutines, bounded queue at depth 4, 8 bees — must leave the DHT
// byte-identical to a plain sequential PublishBatch loop over the same
// pages under the same seed, and to the same crawl with serial (non-
// overlapping) rounds. Pipelining must only show up in the simulated
// makespan. Runs under -race and in the -count=2 determinism re-run.
func TestIngestPipelineDeterminism(t *testing.T) {
	const seed = 7
	const batchSize = 16
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = seed
	ccfg.NumDocs = 48
	corp := corpus.Generate(ccfg)
	pages := make([]Page, len(corp.Docs))
	seeds := make([]string, len(corp.Docs))
	for i, d := range corp.Docs {
		pages[i] = Page{URL: d.URL, Text: d.Text, Links: d.Links}
		seeds[i] = d.URL
	}
	boot := func() (*Engine, *Account) {
		e := New(WithSeed(seed), WithPeers(12), WithBees(8))
		return e, e.NewAccount("crawler", 10_000_000)
	}
	// Seeding every URL makes the reference loop trivial to construct:
	// frontier order is URL order, so batches are consecutive slices.
	// Dedup is off so batch membership is position-independent; the
	// demotion path has its own determinism coverage in internal/ingest.
	opts := CrawlOptions{
		Pages: pages, QueueDepth: 4, BatchSize: batchSize,
		FetchWorkers: 4, DedupThreshold: -1,
	}

	crawled, owner := boot()
	opts.Owner = owner
	st, err := crawled.Crawl(context.Background(), seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != len(pages) || st.Batches != 3 || st.RoundErrors != 0 {
		t.Fatalf("crawl stats %+v", st)
	}
	if st.Makespan >= st.SerialMakespan {
		t.Fatalf("pipelined rounds gained nothing: makespan %v vs serial %v",
			st.Makespan, st.SerialMakespan)
	}

	serialed, serialOwner := boot()
	sopts := opts
	sopts.Owner = serialOwner
	sopts.Serial = true
	if _, err := serialed.Crawl(context.Background(), seeds, sopts); err != nil {
		t.Fatal(err)
	}

	ref, refOwner := boot()
	for i := 0; i < len(pages); i += batchSize {
		end := i + batchSize
		if end > len(pages) {
			end = len(pages)
		}
		if _, err := ref.PublishBatch(refOwner, pages[i:end]); err != nil {
			t.Fatal(err)
		}
	}

	want := dhtWriteState(t, ref)
	if got := dhtWriteState(t, crawled); got != want {
		t.Fatalf("pipelined crawl DHT state diverged from sequential PublishBatch loop:\ncrawl %s\nloop  %s", got, want)
	}
	if got := dhtWriteState(t, serialed); got != want {
		t.Fatalf("serial-rounds crawl DHT state diverged from sequential PublishBatch loop:\ncrawl %s\nloop  %s", got, want)
	}
	if agg := crawled.IngestStats(); agg != st {
		t.Fatalf("engine accumulator %+v != crawl stats %+v", agg, st)
	}
}

// TestIngestStatsRerunIdentical pins the COST side of the crawl's
// determinism contract: two fresh engines, same seed, full Stats
// structs equal — including the simulated wave costs (CommitBusy,
// RevealBusy, Makespan). This is what state-only comparisons miss:
// concurrent bees in a parallel commit wave used to announce their
// serve-cache provider records mid-wave, so a sibling's FindProviders
// cost depended on goroutine interleaving (the records are now queued
// and flushed in bee order after the wave). The crawl's fetch workers
// keep the scheduler busy enough to hit that window reliably.
func TestIngestStatsRerunIdentical(t *testing.T) {
	run := func() IngestStats {
		e := New(WithSeed(11), WithPeers(12), WithBees(4))
		ccfg := corpus.DefaultConfig()
		ccfg.Seed = 11
		ccfg.NumDocs = 24
		corp := corpus.Generate(ccfg)
		pages := make([]Page, len(corp.Docs))
		seeds := make([]string, len(corp.Docs))
		for i, d := range corp.Docs {
			pages[i] = Page{URL: d.URL, Text: d.Text, Links: d.Links}
			seeds[i] = d.URL
		}
		st, err := e.Crawl(context.Background(), seeds, CrawlOptions{
			Pages: pages, QueueDepth: 4, BatchSize: 8, FetchWorkers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run()
	for trial := 0; trial < 2; trial++ {
		if st := run(); st != base {
			t.Fatalf("crawl stats diverged on rerun %d:\n  base %+v\n  got  %+v", trial, base, st)
		}
	}
}

// TestIngestConcurrentThroughput is the write-side counterpart of
// TestQueryConcurrentThroughput: one round ingesting a spread of tasks
// across 8 bees must cost (in simulated time) at most half of what the
// sequential drive pays — the ≥2× write concurrency claim BenchmarkIngest
// reports. Costs come from real goroutine executions, so -race patrols
// the same path.
func TestIngestConcurrentThroughput(t *testing.T) {
	e := New(WithSeed(5), WithPeers(16), WithBees(8))
	owner := e.NewAccount("throughput-owner", 10_000_000)
	for i := 0; i < 32; i++ {
		if _, err := e.Cluster.Publish(owner.acct, e.Cluster.RandomPeer(),
			fmt.Sprintf("dweb://tp/%03d", i),
			fmt.Sprintf("throughput workload document %03d with shared vocabulary", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	e.Cluster.Seal()

	var serial, wave time.Duration
	for r := 0; r < 8; r++ {
		rr := e.RunRound()
		serial += rr.Serial().Latency
		wave += rr.Wave().Latency
		if open, _, _ := e.Cluster.QB.TaskCounts(); open == 0 {
			break
		}
	}
	if open, _, _ := e.Cluster.QB.TaskCounts(); open != 0 {
		t.Fatalf("%d tasks still open", open)
	}
	if wave == 0 {
		t.Fatal("rounds accumulated no simulated cost")
	}
	speedup := float64(serial) / float64(wave)
	t.Logf("write-side simulated makespan: serial %v, wave %v → %.1f× at 8 bees", serial, wave, speedup)
	if speedup < 2 {
		t.Fatalf("write-side speedup at 8 bees = %.2f×, want ≥ 2×", speedup)
	}
}
