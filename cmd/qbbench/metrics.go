package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
)

// spec names one reported metric. BENCHMARK.json lists the same names;
// TestSpecsMatchBenchmarkJSON keeps the two in step.
type spec struct{ name, unit, better string }

var endToEndSpecs = []spec{
	{"setup_s", "s", "lower"},
	{"query_qps", "queries/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"sim_query_p50_ms", "ms", "lower"},
	{"sim_query_p99_ms", "ms", "lower"},
	{"publish_p50_ms", "ms", "lower"},
	{"sim_publish_p50_ms", "ms", "lower"},
	{"crawl_pages_per_s", "pages/s", "higher"},
	{"sim_crawl_pages_per_s", "pages/s", "higher"},
	{"heap_mib", "MiB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

var perLayerSpecs = func() []spec {
	out := []spec{
		{"netsim.calls_per_query", "count", "lower"},
		{"netsim.bytes_per_query", "B", "lower"},
		{"netsim.calls_per_page", "count", "lower"},
		{"netsim.failed_call_frac", "ratio", "lower"},
		{"dht.handler_us_per_query", "us", "lower"},
		{"dht.handler_us_per_page", "us", "lower"},
		{"dht.find_node_per_query", "count", "lower"},
		{"dht.find_value_per_query", "count", "lower"},
		{"dht.store_per_page", "count", "lower"},
		{"dht.add_provider_per_page", "count", "lower"},
		{"dht.get_providers_per_page", "count", "lower"},
		{"store.block_reqs_per_query", "count", "lower"},
		{"store.block_reqs_per_page", "count", "lower"},
		{"store.handler_us_per_page", "us", "lower"},
		{"query.parse_us", "us", "lower"},
	}
	for _, sh := range shapes {
		out = append(out,
			spec{"index.postings_scanned_per_query." + sh, "count", "lower"},
			spec{"index.blocks_skipped_per_query." + sh, "count", "higher"},
			spec{"index.docs_skipped_per_query." + sh, "count", "higher"},
			spec{"index.candidates_per_query." + sh, "count", "lower"},
		)
	}
	return append(out,
		spec{"frontend.self_us_per_query", "us", "lower"},
		spec{"frontend.chain_hit_ratio", "ratio", "higher"},
		spec{"frontend.seg_fetches_per_publish", "count", "lower"},
		spec{"pool.hedges_per_query", "count", "lower"},
		spec{"pool.deadline_misses", "count", "lower"},
		spec{"round.ms", "ms", "lower"},
		spec{"round.sim_wave_ms", "ms", "lower"},
		spec{"round.sim_speedup", "ratio", "higher"},
		spec{"round.segment_writes", "count", "lower"},
		spec{"round.pointer_writes", "count", "lower"},
		spec{"compaction.per_round", "count", "lower"},
		spec{"compaction.bytes_per_round", "B", "lower"},
		spec{"compaction.write_amp", "ratio", "lower"},
		spec{"maintenance.ms_per_pass", "ms", "lower"},
		spec{"maintenance.reprovided_per_pass", "count", "lower"},
		spec{"maintenance.probed_per_pass", "count", "lower"},
		spec{"maintenance.sim_ms_per_pass", "ms", "lower"},
		spec{"rank.epoch_ms", "ms", "lower"},
		spec{"rank.delta_epochs", "count", "higher"},
		spec{"ingest.dedup_ratio", "ratio", "higher"},
		spec{"ingest.queue_wait_ms_per_page", "ms", "lower"},
		spec{"ingest.stall_wait_ms_per_page", "ms", "lower"},
		spec{"ingest.pipeline_speedup", "ratio", "higher"},
		spec{"chain.blocks_per_round", "count", "lower"},
		spec{"contracts.tasks_failed", "count", "lower"},
		spec{"go.alloc_kb_per_query", "KiB", "lower"},
		spec{"go.gc_cpu_frac", "ratio", "lower"},
		spec{"go.alloc_kb_per_page", "KiB", "lower"},
	)
}()

// fill turns computed values into the reported map, with every spec
// present: a metric whose op does not occur in the workload reads 0.
func fill(specs []spec, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: vals[s.name], Unit: s.unit}
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value of xs, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Host-time metrics are medians over fixed blocks of a run, so one
// noisy stretch of host time moves one block, not the metric.
const (
	chunkQueries = 1000 // queries per block: ten samples beyond each p99
	chunkBatches = 8    // crawl batches per block: one rank epoch each
)

// chunks splits n items into consecutive [start, end) blocks of size;
// a remainder joins the last block.
func chunks(n, size int) [][2]int {
	var out [][2]int
	for i := 0; i+size <= n; i += size {
		out = append(out, [2]int{i, i + size})
	}
	if len(out) == 0 && n > 0 {
		return [][2]int{{0, n}}
	}
	if len(out) > 0 {
		out[len(out)-1][1] = n
	}
	return out
}

// crawlRates is a crawl's host throughput per block of batches: pages
// published in the block over the host time since the previous block.
func crawlRates(c crawlRec) []float64 {
	var out []float64
	prev := c.start
	for _, b := range chunks(len(c.batches), chunkBatches) {
		pages := 0
		for _, m := range c.batches[b[0]:b[1]] {
			pages += m.pages
		}
		end := c.batches[b[1]-1].end
		out = append(out, ratio(float64(pages), end.Sub(prev).Seconds()))
		prev = end
	}
	return out
}

// measured keeps the records of the measured run or, where it has none
// (serve crawls and publishes only while setting up), those of every
// set-up.
func measured[T any](xs []T, rep func(T) int) []T {
	var run []T
	for _, x := range xs {
		if rep(x) < 0 {
			run = append(run, x)
		}
	}
	if len(run) > 0 {
		return run
	}
	return xs
}

// lastEngine keeps the records of the engine that served: the measured
// run's, else the last set-up's (set-ups repeat identical work).
// Records are appended in time order.
func lastEngine[T any](xs []T, rep func(T) int) []T {
	var out []T
	for _, x := range xs {
		if rep(x) == rep(xs[len(xs)-1]) {
			out = append(out, x)
		}
	}
	return out
}

func roundRep(x roundRec) int { return x.rep }
func crawlRep(x crawlRec) int { return x.rep }
func maintRep(x maintRec) int { return x.rep }

// endToEnd computes every end-to-end metric but heap_mib, which the
// caller reads once the harness has dropped its records.
func (r *run) endToEnd() map[string]metric {
	v := make(map[string]float64)
	v["setup_s"] = median(r.setupS)
	var sim, qps, p50, p99 []float64
	for _, q := range r.queries {
		sim = append(sim, q.simMS)
	}
	for _, c := range chunks(len(r.queries), chunkQueries) {
		qs := r.queries[c[0]:c[1]]
		lat := make([]float64, len(qs))
		first, last := qs[0].issue, qs[0].done
		for i, q := range qs {
			lat[i] = q.hostMS
			first, last = min(first, q.issue), max(last, q.done)
		}
		qps = append(qps, ratio(float64(len(qs)), (last-first).Seconds()))
		p50 = append(p50, quantile(lat, 0.5))
		p99 = append(p99, quantile(lat, 0.99))
	}
	v["query_qps"] = median(qps)
	v["query_p50_ms"] = median(p50)
	v["query_p99_ms"] = median(p99)
	v["sim_query_p50_ms"] = quantile(sim, 0.5)
	v["sim_query_p99_ms"] = quantile(sim, 0.99)
	var host, wave []float64
	for _, x := range measured(r.rounds, roundRep) {
		host = append(host, x.hostMS)
		wave = append(wave, x.simWaveMS)
	}
	v["publish_p50_ms"] = quantile(host, 0.5)
	v["sim_publish_p50_ms"] = quantile(wave, 0.5)
	var rate, simRate []float64
	for _, c := range measured(r.crawls, crawlRep) {
		rate = append(rate, crawlRates(c)...)
		simRate = append(simRate, c.stats.PagesPerSec())
	}
	v["crawl_pages_per_s"] = median(rate)
	v["sim_crawl_pages_per_s"] = median(simRate)
	v["ok_frac"] = 1 - ratio(float64(r.failed), float64(max(r.attempted, 1)))
	return fill(endToEndSpecs, v)
}

func (r *run) perLayer() map[string]metric {
	v := make(map[string]float64)
	nq := float64(len(r.queries))
	qt := r.tr.layerTimes("query")
	v["netsim.calls_per_query"] = ratio(float64(r.netQuery.Calls), nq)
	v["netsim.bytes_per_query"] = ratio(float64(r.netQuery.Bytes), nq)
	net := r.e.Cluster.Net.StatsSnapshot()
	v["netsim.failed_call_frac"] = ratio(float64(net.Failures), float64(net.Calls))
	v["dht.handler_us_per_query"] = ratio(float64(dhtNS(qt)), nq*1000)
	v["dht.find_node_per_query"] = ratio(float64(qt.calls["dht.findNodeReq"]), nq)
	v["dht.find_value_per_query"] = ratio(float64(qt.calls["dht.findValueReq"]), nq)
	v["store.block_reqs_per_query"] = ratio(float64(qt.calls["store.blockReq"]), nq)
	v["query.parse_us"] = ratio(float64(r.parseNS), float64(r.parseN)*1000)
	v["frontend.self_us_per_query"] = ratio(float64(qt.selfNS), nq*1000)
	hits := float64(r.cacheAfter.ChainHits - r.cacheBefore.ChainHits)
	misses := float64(r.cacheAfter.ChainMisses - r.cacheBefore.ChainMisses)
	v["frontend.chain_hit_ratio"] = ratio(hits, hits+misses)
	v["pool.hedges_per_query"] = ratio(float64(r.hedges), nq)
	v["pool.deadline_misses"] = float64(r.deadlineMisses)
	v["go.alloc_kb_per_query"] = ratio(r.allocKBQ, nq)
	v["go.gc_cpu_frac"] = r.gcFrac

	for _, sh := range shapes {
		var n, scanned, blocks, docs, cands float64
		for _, q := range r.queries {
			if q.shape == sh {
				n++
				scanned += float64(q.scanned)
				blocks += float64(q.blocks)
				docs += float64(q.docs)
				cands += float64(q.total)
			}
		}
		v["index.postings_scanned_per_query."+sh] = ratio(scanned, n)
		v["index.blocks_skipped_per_query."+sh] = ratio(blocks, n)
		v["index.docs_skipped_per_query."+sh] = ratio(docs, n)
		v["index.candidates_per_query."+sh] = ratio(cands, n)
	}

	// Per-page metrics describe the crawl the run measured: crawl's own,
	// or the last set-up crawl of serve and serve-publish.
	if cs := lastEngine(r.crawls, crawlRep); len(cs) > 0 {
		c := cs[len(cs)-1]
		pages := float64(c.stats.Published)
		ct := r.tr.layerTimes("crawl")
		v["netsim.calls_per_page"] = ratio(float64(c.calls.Calls), pages)
		v["dht.handler_us_per_page"] = ratio(float64(dhtNS(ct)), pages*1000)
		v["dht.store_per_page"] = ratio(float64(ct.calls["dht.storeReq"]), pages)
		v["dht.add_provider_per_page"] = ratio(float64(ct.calls["dht.addProviderReq"]), pages)
		v["dht.get_providers_per_page"] = ratio(float64(ct.calls["dht.getProvidersReq"]), pages)
		v["store.block_reqs_per_page"] = ratio(float64(ct.calls["store.blockReq"]), pages)
		v["store.handler_us_per_page"] = ratio(float64(ct.handlerNS["store.blockReq"]), pages*1000)
		v["go.alloc_kb_per_page"] = ratio(c.allocKB, pages)
		v["ingest.dedup_ratio"] = ratio(float64(c.stats.Deduped), float64(c.stats.Fetched))
		v["ingest.queue_wait_ms_per_page"] = ratio(ms(c.stats.QueueWait), pages)
		v["ingest.stall_wait_ms_per_page"] = ratio(ms(c.stats.StallWait), pages)
		v["ingest.pipeline_speedup"] = c.stats.Speedup()
	}

	rounds := lastEngine(r.rounds, roundRep)
	var host, wave, serial, segW, ptrW, comp, compB, blocks float64
	for _, x := range rounds {
		host += x.hostMS
		wave += x.simWaveMS
		serial += x.simSerialMS
		segW += float64(x.segWrites)
		ptrW += float64(x.ptrWrites)
		comp += float64(x.compactions)
		compB += float64(x.compactBytes)
		blocks += float64(x.blocks)
	}
	n := float64(len(rounds))
	v["round.ms"] = ratio(host, n)
	v["round.sim_wave_ms"] = ratio(wave, n)
	v["round.sim_speedup"] = ratio(serial, wave)
	v["round.segment_writes"] = ratio(segW, n)
	v["round.pointer_writes"] = ratio(ptrW, n)
	v["compaction.per_round"] = ratio(comp, n)
	v["compaction.bytes_per_round"] = ratio(compB, n)
	v["chain.blocks_per_round"] = ratio(blocks, n)
	ws := r.e.WriteStats()
	v["compaction.write_amp"] = ratio(float64(ws.IngestedBytes+ws.CompactedBytes), float64(ws.IngestedBytes))
	segMiss := float64(r.cacheAfter.SegMisses - r.cacheBefore.SegMisses)
	v["frontend.seg_fetches_per_publish"] = ratio(segMiss, float64(r.windowRounds))

	var mHost, mSim, mRep, mProbe, mn float64
	for _, m := range lastEngine(r.maint, maintRep) {
		mHost += m.hostMS
		mSim += m.simMS
		mRep += float64(m.reprovided)
		mProbe += float64(m.probed)
		mn++
	}
	v["maintenance.ms_per_pass"] = ratio(mHost, mn)
	v["maintenance.sim_ms_per_pass"] = ratio(mSim, mn)
	v["maintenance.reprovided_per_pass"] = ratio(mRep, mn)
	v["maintenance.probed_per_pass"] = ratio(mProbe, mn)

	v["rank.epoch_ms"] = mean(r.epochMS)
	v["rank.delta_epochs"] = float64(r.deltaEpochs)
	v["contracts.tasks_failed"] = float64(r.e.Stats().TasksFailed)
	return fill(perLayerSpecs, v)
}

// dhtNS sums handler time over DHT message types.
func dhtNS(lt layerTimes) int64 {
	var ns int64
	for name, d := range lt.handlerNS {
		if strings.HasPrefix(name, "dht.") {
			ns += d
		}
	}
	return ns
}

// detail reports sample counts and the regime of the query phase, on
// the line before the result.
func (r *run) detail(e2e map[string]metric) map[string]any {
	stalled := 0
	perShape := make(map[string]int)
	for _, q := range r.queries {
		if q.stalled {
			stalled++
		}
		perShape[q.shape]++
	}
	misses := r.cacheAfter.ChainMisses - r.cacheBefore.ChainMisses
	d := map[string]any{
		"queries":                len(r.queries),
		"queries_per_shape":      perShape,
		"publish_rounds":         len(measured(r.rounds, roundRep)),
		"crawls":                 len(measured(r.crawls, crawlRep)),
		"setup_reps":             len(r.setupS),
		"maintenance_passes":     len(r.maint),
		"stalled_query_frac":     ratio(float64(stalled), float64(len(r.queries))),
		"chain_misses_per_query": ratio(float64(misses), float64(len(r.queries))),
		"watchdog_dumps":         r.dumps,
		"end_to_end":             e2e,
	}
	if cs := lastEngine(r.crawls, crawlRep); len(cs) > 0 {
		st := cs[0].stats
		d["crawl"] = map[string]int{
			"fetched": st.Fetched, "published": st.Published, "deduped": st.Deduped,
			"fetch_failed": st.FetchFailed, "dangling": st.Dangling, "batches": st.Batches, "rank_epochs": st.RankEpochs,
		}
	}
	return d
}

// writeRecord stores what two runs of one seed must agree on: every
// answer in stream order, every simulated cost, the crawl counters and
// the network's message counters.
func (r *run) writeRecord(path string) error {
	type rec struct {
		Answers     []string    `json:"answers"`
		SimQueryMS  []float64   `json:"sim_query_ms"`
		SimRoundMS  []float64   `json:"sim_round_ms"`
		Crawl       any         `json:"crawl"`
		Net         any         `json:"net"`
		Write       any         `json:"write"`
		Maintenance []maintJSON `json:"maintenance"`
	}
	out := rec{Net: r.e.Cluster.Net.StatsSnapshot(), Write: r.e.WriteStats()}
	for _, a := range r.answers {
		out.Answers = append(out.Answers, a.key()+" "+a.err+a.digest())
	}
	for _, q := range r.queries {
		out.SimQueryMS = append(out.SimQueryMS, q.simMS)
	}
	for _, x := range r.rounds {
		if x.rep < 0 || x.rep == len(r.setupS)-1 {
			out.SimRoundMS = append(out.SimRoundMS, x.simWaveMS)
		}
	}
	if cs := lastEngine(r.crawls, crawlRep); len(cs) > 0 {
		out.Crawl = cs[0].stats
	}
	for _, m := range r.maint {
		if m.rep < 0 || m.rep == len(r.setupS)-1 {
			out.Maintenance = append(out.Maintenance, maintJSON{SimMS: m.simMS, Reprovided: m.reprovided, Probed: m.probed})
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type maintJSON struct {
	SimMS      float64 `json:"sim_ms"`
	Reprovided int     `json:"reprovided"`
	Probed     int     `json:"probed"`
}
