package ingest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// fakeSink records batches and returns synthetic receipts with fixed
// phase costs, so pipeline tests never boot a cluster.
type fakeSink struct {
	commit, reveal time.Duration
	batches        [][]core.BatchPage
	failOn         int // fail the Nth call (1-based); 0 = never
	onBatch        func(n int)
}

func (s *fakeSink) IndexBatch(pages []core.BatchPage) (core.RoundReceipt, error) {
	cp := append([]core.BatchPage(nil), pages...)
	s.batches = append(s.batches, cp)
	if s.onBatch != nil {
		s.onBatch(len(s.batches))
	}
	if s.failOn > 0 && len(s.batches) == s.failOn {
		return core.RoundReceipt{}, errors.New("sink exploded")
	}
	return core.RoundReceipt{
		Materialized:    1,
		CommitWave:      netsim.Cost{Latency: s.commit},
		MaterializeWave: netsim.Cost{Latency: s.reveal},
	}, nil
}

func (s *fakeSink) published() []string {
	var out []string
	for _, b := range s.batches {
		for _, p := range b {
			out = append(out, p.URL)
		}
	}
	return out
}

// chainPages builds a linked list of n distinct pages: page i links to
// page i+1; the last page links to a dangling URL.
func chainPages(n int) []Page {
	pages := make([]Page, n)
	for i := range pages {
		pages[i] = Page{
			URL:  fmt.Sprintf("dweb://t/p%03d", i),
			Text: testText(i, 60),
		}
		if i+1 < n {
			pages[i].Links = []string{fmt.Sprintf("dweb://t/p%03d", i+1)}
		} else {
			pages[i].Links = []string{"dweb://t/missing"}
		}
	}
	return pages
}

// testText builds distinct word-soup per id so no two pages are
// near-duplicates.
func testText(id, words int) string {
	var b strings.Builder
	for w := 0; w < words; w++ {
		fmt.Fprintf(&b, "toka%d tokb%d ", (id*97+w*7)%61, (id*53+w*13)%43)
	}
	return b.String()
}

func TestIngestFrontierDiscovery(t *testing.T) {
	pages := chainPages(10)
	sink := &fakeSink{commit: time.Millisecond, reveal: time.Millisecond}
	st, err := Crawl(context.Background(), MapSource(pages), sink,
		[]string{pages[0].URL}, Options{Seed: 1, BatchSize: 4, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The whole chain is reachable from the single seed, in link order.
	want := make([]string, len(pages))
	for i := range pages {
		want[i] = pages[i].URL
	}
	if got := sink.published(); !reflect.DeepEqual(got, want) {
		t.Fatalf("published %v, want %v", got, want)
	}
	if st.Fetched != 10 || st.Published != 10 || st.Batches != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.Dangling != 1 {
		t.Fatalf("dangling = %d, want 1 (the missing link)", st.Dangling)
	}
	if st.Makespan <= 0 || st.PagesPerSec() <= 0 {
		t.Fatalf("no makespan accounted: %+v", st)
	}
}

func TestIngestScraperMirrorDemoted(t *testing.T) {
	// The paper's scraper attack: a mirror site republishes page 3's
	// content with a few spliced words, hoping to siphon its traffic.
	pages := chainPages(6)
	mirror := Page{
		URL:  "dweb://scraper/copy",
		Text: pages[3].Text + " sponsored mirror links here",
	}
	pages[5].Links = []string{mirror.URL}
	all := append(append([]Page(nil), pages...), mirror)
	sink := &fakeSink{}
	st, err := Crawl(context.Background(), MapSource(all), sink,
		[]string{pages[0].URL}, Options{Seed: 1, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deduped != 1 {
		t.Fatalf("Deduped = %d, want 1; stats %+v", st.Deduped, st)
	}
	for _, url := range sink.published() {
		if url == mirror.URL {
			t.Fatal("demoted mirror was published")
		}
	}
	if st.Published != 6 || st.Fetched != 7 {
		t.Fatalf("stats %+v", st)
	}

	// With demotion disabled the mirror publishes like any page.
	sink2 := &fakeSink{}
	st2, err := Crawl(context.Background(), MapSource(all), sink2,
		[]string{pages[0].URL}, Options{Seed: 1, BatchSize: 3, DedupThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Deduped != 0 || st2.Published != 7 {
		t.Fatalf("dedup off: %+v", st2)
	}
}

func TestIngestBackpressureAccounting(t *testing.T) {
	// Expensive rounds + tiny queue: fetchers must stall, the queue
	// must saturate, and pipelined rounds must beat serial ones.
	pages := chainPages(32)
	seeds := make([]string, len(pages))
	for i := range pages {
		seeds[i] = pages[i].URL
	}
	opts := Options{
		Seed: 3, BatchSize: 8, QueueDepth: 4, FetchWorkers: 8,
		MeanFetchLatency: time.Millisecond,
	}
	run := func(serial bool) Stats {
		sink := &fakeSink{commit: 40 * time.Millisecond, reveal: 40 * time.Millisecond}
		o := opts
		o.Serial = serial
		st, err := Crawl(context.Background(), MapSource(pages), sink, seeds, o)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	pip := run(false)
	ser := run(true)

	if pip.QueueDepthMax != opts.QueueDepth {
		t.Fatalf("queue never saturated: depth max %d, want %d", pip.QueueDepthMax, opts.QueueDepth)
	}
	if pip.StallWait <= 0 {
		t.Fatalf("no producer stall accounted under a full queue: %+v", pip)
	}
	if pip.Makespan >= ser.Makespan {
		t.Fatalf("pipelined makespan %v not better than serial %v", pip.Makespan, ser.Makespan)
	}
	if pip.SerialMakespan != ser.Makespan {
		t.Fatalf("pipelined run predicts serial makespan %v, serial run measured %v",
			pip.SerialMakespan, ser.Makespan)
	}
	if sp := pip.Speedup(); sp <= 1 {
		t.Fatalf("speedup = %v, want > 1", sp)
	}
	if ser.Speedup() != 1 {
		t.Fatalf("serial speedup = %v, want 1", ser.Speedup())
	}
	// Chain effects are identical either way: same pages, same batches.
	if pip.Published != ser.Published || pip.Batches != ser.Batches {
		t.Fatalf("round model changed what was published: %+v vs %+v", pip, ser)
	}
}

func TestIngestDeterministicRuns(t *testing.T) {
	pages := chainPages(24)
	seeds := []string{pages[0].URL}
	opts := Options{Seed: 9, BatchSize: 5, QueueDepth: 4, FetchWorkers: 6, FetchFailRate: 0.25}
	var prev Stats
	var prevPub []string
	for i := 0; i < 3; i++ {
		sink := &fakeSink{commit: 2 * time.Millisecond, reveal: 3 * time.Millisecond}
		st, err := Crawl(context.Background(), MapSource(pages), sink, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.FetchFailed == 0 {
			t.Fatalf("fail rate drew no failures: %+v", st)
		}
		if i > 0 {
			if st != prev {
				t.Fatalf("run %d stats diverged:\n%+v\n%+v", i, st, prev)
			}
			if !reflect.DeepEqual(sink.published(), prevPub) {
				t.Fatalf("run %d published set diverged", i)
			}
		}
		prev, prevPub = st, sink.published()
	}
	// A failed fetch breaks the chain walk there: everything after the
	// first failure is undiscovered, so fetched+failed < total.
	if prev.Fetched+prev.FetchFailed > len(pages) {
		t.Fatalf("accounted more pages than exist: %+v", prev)
	}
}

func TestIngestMaxPages(t *testing.T) {
	pages := chainPages(30)
	sink := &fakeSink{}
	st, err := Crawl(context.Background(), MapSource(pages), sink,
		[]string{pages[0].URL}, Options{Seed: 1, BatchSize: 4, MaxPages: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Fetched != 10 || st.Published != 10 {
		t.Fatalf("MaxPages not honored: %+v", st)
	}
}

func TestIngestSinkError(t *testing.T) {
	pages := chainPages(40)
	seeds := make([]string, len(pages))
	for i := range pages {
		seeds[i] = pages[i].URL
	}
	sink := &fakeSink{failOn: 2}
	st, err := Crawl(context.Background(), MapSource(pages), sink, seeds,
		Options{Seed: 1, BatchSize: 8, QueueDepth: 4})
	if err == nil || !strings.Contains(err.Error(), "sink exploded") {
		t.Fatalf("err = %v, want sink failure", err)
	}
	if st.Published != 8 || st.Batches != 1 {
		t.Fatalf("partial stats %+v, want exactly the first batch", st)
	}
}

func TestIngestCancellation(t *testing.T) {
	pages := chainPages(64)
	seeds := make([]string, len(pages))
	for i := range pages {
		seeds[i] = pages[i].URL
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &fakeSink{onBatch: func(n int) {
		if n == 2 {
			cancel()
		}
	}}
	st, err := Crawl(ctx, MapSource(pages), sink, seeds,
		Options{Seed: 1, BatchSize: 8, QueueDepth: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Published == 0 || st.Published >= len(pages) {
		t.Fatalf("want a partial crawl, got %+v", st)
	}
}

func TestIngestEmptyAndAllDangling(t *testing.T) {
	sink := &fakeSink{}
	st, err := Crawl(context.Background(), MapSource(nil), sink,
		[]string{"dweb://nowhere/a", "dweb://nowhere/b"}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dangling != 2 || st.Published != 0 || len(sink.batches) != 0 {
		t.Fatalf("stats %+v, batches %d", st, len(sink.batches))
	}
	if _, err := Crawl(context.Background(), MapSource(nil), sink, nil, Options{Seed: 1}); err != nil {
		t.Fatalf("empty seeds: %v", err)
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Fetched: 3, Published: 2, QueueDepthMax: 4, Makespan: time.Second, SerialMakespan: 2 * time.Second}
	b := Stats{Fetched: 1, Deduped: 1, QueueDepthMax: 2, Makespan: time.Second, SerialMakespan: time.Second}
	a.Merge(b)
	if a.Fetched != 4 || a.Deduped != 1 || a.QueueDepthMax != 4 || a.Makespan != 2*time.Second {
		t.Fatalf("merged %+v", a)
	}
	if a.Speedup() != 1.5 {
		t.Fatalf("speedup %v", a.Speedup())
	}
}

// TestIngestChainStress crawls a long chain many times. A chain keeps
// the frontier exactly one page ahead of the sequencer, so any gap
// between advancing nextSeq and appending a page's links lets every
// fetch worker exit early and the crawl hangs. Each crawl runs under a
// watchdog that fails with a full goroutine dump instead of hanging.
// Dedup is off: only liveness is under test, and it halves the run time.
func TestIngestChainStress(t *testing.T) {
	pages := chainPages(400)
	src := MapSource(pages)
	runs := 200
	if testing.Short() {
		runs = 50
	}
	for i := 0; i < runs; i++ {
		sink := &fakeSink{}
		var st Stats
		done := make(chan error, 1)
		go func() {
			var err error
			st, err = Crawl(context.Background(), src, sink, []string{pages[0].URL},
				Options{Seed: uint64(i), FetchWorkers: 4, BatchSize: 16, QueueDepth: 4, DedupThreshold: -1})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("run %d: crawl hung\n%s", i, buf)
		}
		if st.Fetched != len(pages) || st.Dangling != 1 {
			t.Fatalf("run %d: stats %+v, want all %d pages fetched", i, st, len(pages))
		}
	}
}
