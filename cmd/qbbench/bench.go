package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	queenbee "repro"
	"repro/internal/ingest"
	"repro/internal/netsim"
	"repro/internal/query"
)

// Host-time watchdog limits. An op that overruns its limit counts as
// failed and dumps every goroutine to stderr instead of hanging the run.
const (
	queryLimit = 10 * time.Second
	roundLimit = 30 * time.Second
	crawlLimit = 30 * time.Second
	// runLimit bounds a whole query phase, publisher included.
	runLimit = 120 * time.Second
)

// roundRec is one publish round: a crawl batch or a serve-publish
// round (whose host time includes its maintenance pass).
type roundRec struct {
	hostMS       float64
	simWaveMS    float64
	simSerialMS  float64
	segWrites    int
	ptrWrites    int
	compactions  int
	compactBytes int64
	blocks       uint64 // chain blocks sealed during the round
	rep          int    // set-up repetition, or -1 in the measured run
}

// maintRec is one maintenance pass.
type maintRec struct {
	hostMS     float64
	simMS      float64
	reprovided int
	probed     int
	rep        int
}

// queryRec is one timed query.
type queryRec struct {
	hostMS  float64
	simMS   float64
	issue   time.Duration // since the phase started
	done    time.Duration
	shape   string
	scanned int64
	blocks  int64
	docs    int64
	total   int
	stalled bool // waited for a publish round before it could run
}

// batchMark is one crawl batch's end time and size.
type batchMark struct {
	end   time.Time
	pages int
}

// crawlRec is one crawl: its pipeline stats and host timing.
type crawlRec struct {
	stats   ingest.Stats
	start   time.Time
	batches []batchMark // per crawl batch: when it ended, pages it published
	allocKB float64     // Go heap allocated during the crawl
	calls   netsim.Stats
	rep     int
}

// run is the state of one benchmark invocation.
type run struct {
	seed    uint64
	clients int
	tr      *tracer

	e     *queenbee.Engine
	owner *queenbee.Account

	attempted, failed int
	problems          []string // first failures, for stderr
	wedged            bool     // a watchdog fired on a mutating op

	dumpMu sync.Mutex
	dumps  int

	rep     int // current set-up repetition, -1 once the run is measured
	setupS  []float64
	rounds  []roundRec
	maint   []maintRec
	epochMS []float64 // host time per rank epoch, last engine only
	// deltaEpochs counts the last engine's epochs run incrementally.
	deltaEpochs int
	crawls      []crawlRec

	queries []queryRec
	answers []answer
	specs   []querySpec // the query list answers index into
	parseNS int64       // traced runs: time spent in query.Parse
	parseN  int
	// windowRounds counts the publish rounds inside the query phase.
	windowRounds int
	netQuery     netsim.Stats
	allocKBQ     float64
	gcFrac       float64

	cacheBefore, cacheAfter queenbee.CacheStats
	hedges, deadlineMisses  int64
	heapBase                uint64
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// dump writes every goroutine's stack to stderr (at most twice a run).
func (r *run) dump(what string) {
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	fmt.Fprintf(os.Stderr, "qbbench: watchdog: %s overran its limit\n", what)
	if r.dumps < 2 {
		r.dumps++
		if err := pprof.Lookup("goroutine").WriteTo(os.Stderr, 2); err != nil {
			fmt.Fprintf(os.Stderr, "qbbench: goroutine dump: %v\n", err)
		}
	}
}

// guard runs a mutating op under the watchdog. An overrun leaves the
// engine mid-mutation, so the run stops issuing mutations after it.
func (r *run) guard(what string, limit time.Duration, fn func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		r.dump(what)
		r.wedged = true
		r.fail("%s: watchdog fired after %s", what, limit)
		return false
	}
}

// engineSink publishes crawl batches through Engine.PublishBatch and
// drives rank epochs through Engine.ComputeRanksDelta — the calls
// Engine.Crawl's cluster sink makes — timing and tracing each one.
type engineSink struct {
	r   *run
	rec *crawlRec
}

func (s engineSink) IndexBatch(pages []queenbee.Page) (queenbee.RoundReceipt, error) {
	r := s.r
	end := r.tr.begin("crawl_batch")
	h0 := r.e.Cluster.Chain.Height()
	t0 := time.Now()
	rr, err := r.e.PublishBatch(r.owner, pages)
	host := time.Since(t0)
	end()
	s.rec.batches = append(s.rec.batches, batchMark{end: t0.Add(host), pages: len(pages)})
	r.attempted++
	switch {
	case err != nil:
		r.fail("crawl batch: %v", err)
	case len(rr.Errors) > 0:
		r.fail("crawl batch: %d round errors, first: %v", len(rr.Errors), rr.Errors[0])
	}
	r.rounds = append(r.rounds, roundOf(rr, host, r.e.Cluster.Chain.Height()-h0, r.rep))
	return rr, err
}

func (s engineSink) RankEpoch(partitions int) {
	s.r.rankEpoch(partitions)
}

// rankEpoch drives one delta-scheduled rank epoch to finalization and
// notes whether the contract ran it as a delta or a full recompute.
func (r *run) rankEpoch(partitions int) {
	end := r.tr.begin("rank_epoch")
	t0 := time.Now()
	epoch := r.e.ComputeRanksDelta(partitions)
	r.epochMS = append(r.epochMS, ms(time.Since(t0)))
	end()
	if r.e.RankStatus().LastFull != epoch {
		r.deltaEpochs++
	}
}

func roundOf(rr queenbee.RoundReceipt, host time.Duration, blocks uint64, rep int) roundRec {
	return roundRec{
		hostMS:       ms(host),
		simWaveMS:    ms(rr.Wave().Latency),
		simSerialMS:  ms(rr.Serial().Latency),
		segWrites:    rr.SegmentWrites,
		ptrWrites:    rr.PointerWrites,
		compactions:  rr.Compactions,
		compactBytes: rr.CompactedBytes,
		blocks:       blocks,
		rep:          rep,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// crawlOpts are the pipeline settings of one crawl.
type crawlOpts struct {
	batch, rankEvery, rankParts int
}

// crawl walks pages from seeds through the streaming ingest pipeline
// with two fetch workers, under the crawl watchdog.
func (r *run) crawl(pages []queenbee.Page, seeds []string, o crawlOpts) bool {
	rec := &crawlRec{rep: r.rep}
	calls0 := r.e.Cluster.Net.StatsSnapshot()
	alloc0 := totalAlloc()
	ctx, cancel := context.WithTimeout(context.Background(), crawlLimit)
	defer cancel()
	var err error
	end := r.tr.begin("crawl")
	rec.start = time.Now()
	ok := r.guard("crawl", crawlLimit+10*time.Second, func() {
		rec.stats, err = ingest.Crawl(ctx, ingest.MapSource(pages), engineSink{r, rec}, seeds, ingest.Options{
			Seed:           r.e.Cluster.Config().Seed,
			FetchWorkers:   2,
			BatchSize:      o.batch,
			RankEvery:      o.rankEvery,
			RankPartitions: o.rankParts,
		})
	})
	end()
	if !ok {
		return false
	}
	rec.allocKB = float64(totalAlloc()-alloc0) / 1024
	rec.calls = statsDelta(r.e.Cluster.Net.StatsSnapshot(), calls0)
	if err != nil {
		r.attempted++
		r.fail("crawl: %v", err)
		if errors.Is(err, context.DeadlineExceeded) {
			r.dump("crawl")
		}
		return false
	}
	if rec.stats.RoundErrors != 0 {
		r.fail("crawl: %d round errors", rec.stats.RoundErrors)
	}
	r.crawls = append(r.crawls, *rec)
	return true
}

// maintain drives one self-healing pass, as queenbeed's -maintenance
// default does at the end of every round.
func (r *run) maintain() {
	end := r.tr.begin("maintenance")
	t0 := time.Now()
	rs := r.e.RunMaintenance()
	host := time.Since(t0)
	end()
	r.attempted++
	if rs.SegmentsLost > 0 {
		r.fail("maintenance: %d segments lost", rs.SegmentsLost)
	}
	r.maint = append(r.maint, maintRec{hostMS: ms(host), simMS: ms(rs.Cost.Latency), reprovided: rs.Reprovided, probed: rs.ProbedKeys, rep: r.rep})
}

func statsDelta(a, b netsim.Stats) netsim.Stats {
	return netsim.Stats{Calls: a.Calls - b.Calls, Failures: a.Failures - b.Failures, Bytes: a.Bytes - b.Bytes}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// engineHeapMiB is the live heap the engine adds to the inputs. It drops
// the harness's own records (answers, query records, spans) first, so
// only the engine and a few per-op counters remain past the base.
func (r *run) engineHeapMiB() float64 {
	r.answers, r.queries, r.specs = nil, nil, nil
	r.tr.reset()
	live := liveHeap()
	runtime.KeepAlive(r.e)
	return float64(live-min(r.heapBase, live)) / (1 << 20)
}

// liveHeap is the heap still in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// gate is queenbeed's reader/writer discipline with a deterministic cut:
// queries hold the read side, a publish round the write side, and round
// g starts exactly after the first g*every queries of the stream have
// completed, while later queries wait for it. Which generation each
// query sees is therefore fixed by the stream, not by the scheduler.
type gate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	every  int   // queries per generation; 0 = read-only
	rounds int   // publish rounds in the phase
	gen    int   // generations published so far
	done   []int // completed queries per generation
	active int   // queries running
	abort  bool
}

func newGate(every, rounds int) *gate {
	g := &gate{every: every, rounds: rounds, done: make([]int, rounds+1)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) genOf(j int) int {
	if g.every == 0 {
		return 0
	}
	return min(j/g.every, g.rounds)
}

// enter blocks query j until its generation is published; it reports
// the generation and whether the query had to wait.
func (g *gate) enter(j int) (gen int, waited, ok bool) {
	want := g.genOf(j)
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.gen < want && !g.abort {
		waited = true
		g.cond.Wait()
	}
	g.active++
	return want, waited, !g.abort
}

func (g *gate) exit(gen int) {
	g.mu.Lock()
	g.active--
	g.done[gen]++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// lock waits until every query of generation gen-1 has completed.
func (g *gate) lock(gen int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for (g.done[gen-1] < g.every || g.active > 0) && !g.abort {
		g.cond.Wait()
	}
	return !g.abort
}

func (g *gate) unlock(gen int) {
	g.mu.Lock()
	g.gen = gen
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *gate) stop() {
	g.mu.Lock()
	g.abort = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// queryPhase issues the stream over specs from the closed-loop clients,
// with a publisher driving publish rounds through the gate. It records
// every answer for the check that follows; timing stops when the last
// op completes.
func (r *run) queryPhase(specs []querySpec, stream []int, batches [][]queenbee.Page, orc *oracle, timed bool) {
	every := 0
	if len(batches) > 0 {
		every = len(stream) / (len(batches) + 1)
	}
	g := newGate(every, len(batches))
	answers := make([]answer, len(stream))
	recs := make([]queryRec, len(stream))
	issued := make([]bool, len(stream))
	var next atomic.Int64
	var parseNS atomic.Int64
	var wg sync.WaitGroup

	opName := "warmup_query"
	if timed {
		opName = "query"
		runtime.GC() // start the window without the set-up's garbage
	}
	var net netsim.Stats // traced runs: the queries' own messages
	alloc0 := totalAlloc()
	gc0, cpu0 := gcCPU()
	cache0 := r.e.CacheStats()
	pool0 := r.e.PoolStats()
	t0 := time.Now()
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(stream) {
					return
				}
				q := specs[stream[j]]
				issue := time.Now()
				gen, waited, ok := g.enter(j)
				if !ok {
					return
				}
				issued[j] = true
				if r.tr != nil {
					p0 := time.Now()
					if _, err := query.Parse(q.raw); err != nil {
						answers[j].err = fmt.Sprintf("query %q does not parse: %v", q.raw, err)
					}
					parseNS.Add(int64(time.Since(p0)))
				}
				ctx, cancel := context.WithTimeout(context.Background(), queryLimit)
				var n0 netsim.Stats
				if r.tr != nil {
					n0 = r.e.Cluster.Net.StatsSnapshot()
				}
				end := r.tr.begin(opName)
				b := r.e.QueryCtx(ctx, q.raw).Page(q.page, pageSize)
				if q.snippets {
					b = b.WithSnippets()
				}
				resp, err := b.Run()
				end()
				cancel()
				if r.tr != nil {
					d := statsDelta(r.e.Cluster.Net.StatsSnapshot(), n0)
					net.Calls, net.Failures, net.Bytes = net.Calls+d.Calls, net.Failures+d.Failures, net.Bytes+d.Bytes
				}
				lat := time.Since(issue)
				g.exit(gen)

				a := &answers[j]
				a.q, a.gen = stream[j], gen
				switch {
				case a.err != "":
				case err != nil:
					a.err = fmt.Sprintf("query %q: %v", q.raw, err)
					if ctx.Err() != nil {
						r.dump("query " + q.raw)
					}
				case resp.Degraded != nil:
					a.err = fmt.Sprintf("query %q: degraded answer (%.2f complete): %s", q.raw, resp.Degraded.Completeness, resp.Degraded.Cause)
				default:
					a.total = resp.Total
					for _, res := range resp.Results {
						a.urls = append(a.urls, res.URL)
						a.score = append(a.score, res.Score)
						a.snips = append(a.snips, res.Snippet)
					}
				}
				rec := &recs[j]
				rec.hostMS, rec.shape, rec.stalled = ms(lat), q.shape, waited
				rec.issue, rec.done = issue.Sub(t0), issue.Sub(t0)+lat
				if resp != nil {
					rec.simMS = ms(resp.Cost.Latency)
					rec.scanned = resp.ScoreStats.PostingsScanned
					rec.blocks = resp.ScoreStats.BlocksSkipped
					rec.docs = resp.ScoreStats.DocsSkipped
					rec.total = resp.Total
				}
			}
		}()
	}
	if len(batches) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, batch := range batches {
				gen := i + 1
				if !g.lock(gen) {
					return
				}
				if !r.publishRound(batch) {
					g.stop()
					return
				}
				orc.publish(gen, batch)
				g.unlock(gen)
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(runLimit):
		r.dump("query phase")
		g.stop()
		r.wedged = true
		r.fail("query phase: watchdog fired after %s", runLimit)
		return
	}
	for j := range stream {
		if !issued[j] {
			continue
		}
		r.attempted++
		r.answers = append(r.answers, answers[j])
		if timed {
			r.queries = append(r.queries, recs[j])
		}
	}
	if !timed {
		return
	}
	r.windowRounds = len(batches)
	r.netQuery = net
	r.allocKBQ = float64(totalAlloc()-alloc0) / 1024
	gc1, cpu1 := gcCPU()
	if cpu1 > cpu0 {
		r.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	r.cacheBefore, r.cacheAfter = cache0, r.e.CacheStats()
	pool1 := r.e.PoolStats()
	for i := range pool1.Frontends {
		r.hedges += pool1.Frontends[i].Hedges - pool0.Frontends[i].Hedges
	}
	r.deadlineMisses += pool1.DeadlineMisses - pool0.DeadlineMisses
	r.parseNS += parseNS.Load()
	r.parseN += len(stream)
}

// publishRound is one serve-publish write: a PublishBatch round, then
// the maintenance pass queenbeed's -maintenance default runs after it.
// Its host time covers both.
func (r *run) publishRound(batch []queenbee.Page) bool {
	var rr queenbee.RoundReceipt
	var err error
	end := r.tr.begin("publish_round")
	h0 := r.e.Cluster.Chain.Height()
	t0 := time.Now()
	ok := r.guard("publish round", roundLimit, func() {
		endB := r.tr.begin("publish_batch")
		rr, err = r.e.PublishBatch(r.owner, batch)
		endB()
		if err == nil {
			r.maintain()
		}
	})
	host := time.Since(t0)
	end()
	if !ok {
		return false
	}
	r.attempted++
	switch {
	case err != nil:
		r.fail("publish round: %v", err)
		return false
	case len(rr.Errors) > 0:
		r.fail("publish round: %d round errors, first: %v", len(rr.Errors), rr.Errors[0])
	}
	r.rounds = append(r.rounds, roundOf(rr, host, r.e.Cluster.Chain.Height()-h0, r.rep))
	return true
}
