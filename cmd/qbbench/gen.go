package main

import (
	"fmt"
	"strings"

	queenbee "repro"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/xrand"
)

// Query shapes of the mix. Every shape is drawn from page text, so every
// query has at least one match when it is generated.
const (
	shapeTerm   = "term"   // one word
	shapeAnd    = "and"    // two words of one page
	shapeOr     = "or"     // two words of two pages, "a OR b"
	shapePhrase = "phrase" // two adjacent words of one page, quoted
	shapeSite   = "site"   // one word plus a site: prefix of its page's URL
	shapePage2  = "page2"  // an OR query, second page of ten
)

// shapes lists the query shapes in report order.
var shapes = []string{shapeTerm, shapeAnd, shapeOr, shapePhrase, shapeSite, shapePage2}

// expr is the benchmark's own statement of what a query means, kept
// beside the query string the engine parses. The oracle evaluates it
// over the published page texts.
type expr struct {
	op    byte     // 't' one term, 'a' all terms, 'o' any term, 'p' phrase
	terms []string // analyzed terms
	site  string   // URL prefix filter, "" for none
}

// querySpec is one distinct query of the pool.
type querySpec struct {
	shape    string
	raw      string
	page     int // 1-based result page of size pageSize
	snippets bool
	want     expr
}

const pageSize = 10

// snippetShare is the share of term and AND queries that ask for
// snippets. A snippet fetches page content the answering frontend may
// not hold yet; kept small, those fetches stay well under 1% of queries,
// so they never decide whether query_p99_ms lands on them.
const snippetShare = 0.05

// corpusPages converts generated documents to publishable pages.
func corpusPages(docs []corpus.Document) []queenbee.Page {
	out := make([]queenbee.Page, 0, len(docs))
	for _, d := range docs {
		out = append(out, queenbee.Page{URL: d.URL, Text: d.Text, Links: append([]string(nil), d.Links...)})
	}
	return out
}

func genCorpus(seed uint64, docs int) *corpus.Corpus {
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	cfg.NumDocs = docs
	return corpus.Generate(cfg)
}

// singleTerm returns the analyzed form of a word that analyzes to
// exactly one term.
func singleTerm(word string) (string, bool) {
	ts := index.AnalyzeQuery(word)
	if len(ts) != 1 {
		return "", false
	}
	return ts[0], true
}

// queryGen draws queries from a fixed page set.
type queryGen struct {
	rng   *xrand.RNG
	pages []queenbee.Page
	words [][]string // per page: its words, split on spaces
}

func newQueryGen(seed uint64, name string, pages []queenbee.Page) *queryGen {
	g := &queryGen{rng: xrand.NewNamed(seed, name), pages: pages}
	for _, p := range pages {
		g.words = append(g.words, strings.Fields(p.Text))
	}
	return g
}

// word draws a word at a random position of page i, so common words
// are drawn as often as they occur.
func (g *queryGen) word(i int) (raw, term string) {
	for {
		ws := g.words[i]
		w := ws[g.rng.Intn(len(ws))]
		if t, ok := singleTerm(w); ok {
			return w, t
		}
	}
}

func (g *queryGen) page() int { return g.rng.Intn(len(g.pages)) }

// sitePrefix cuts a page URL after its path prefix ("dweb://wiki/page-")
// plus one to all of its four digits, so the filter keeps anything from
// a thousand-page range down to the page itself.
func (g *queryGen) sitePrefix(url string) string {
	cut := strings.LastIndexByte(url, '-') + 1
	if cut <= 0 || cut >= len(url) {
		return url
	}
	return url[:cut+1+g.rng.Intn(len(url)-cut)]
}

// next draws one query of the given shape.
func (g *queryGen) next(shape string) querySpec {
	q := querySpec{shape: shape, page: 1}
	switch shape {
	case shapeTerm:
		w, t := g.word(g.page())
		q.raw, q.want = w, expr{op: 't', terms: []string{t}}
		q.snippets = g.rng.Bool(snippetShare)
	case shapeAnd:
		i := g.page()
		w1, t1 := g.word(i)
		w2, t2 := g.word(i)
		q.raw, q.want = w1+" "+w2, expr{op: 'a', terms: []string{t1, t2}}
		q.snippets = g.rng.Bool(snippetShare)
	case shapeOr, shapePage2:
		w1, t1 := g.word(g.page())
		w2, t2 := g.word(g.page())
		q.raw, q.want = w1+" OR "+w2, expr{op: 'o', terms: []string{t1, t2}}
		if shape == shapePage2 {
			q.page = 2
		}
	case shapePhrase:
		for {
			i := g.page()
			ws := g.words[i]
			j := g.rng.Intn(len(ws) - 1)
			t1, ok1 := singleTerm(ws[j])
			t2, ok2 := singleTerm(ws[j+1])
			if ok1 && ok2 {
				q.raw = `"` + ws[j] + " " + ws[j+1] + `"`
				q.want = expr{op: 'p', terms: []string{t1, t2}}
				break
			}
		}
	case shapeSite:
		i := g.page()
		w, t := g.word(i)
		prefix := g.sitePrefix(g.pages[i].URL)
		q.raw, q.want = w+" site:"+prefix, expr{op: 'a', terms: []string{t}, site: prefix}
	default:
		panic("unknown shape " + shape)
	}
	return q
}

// shapeWeights is the query mix, in shapes order. It is a coverage mix
// with weights of the same order, not measured traffic: no query log of
// this system exists and the shares are chosen, not sourced. Every shape
// gets 10-25%, at least a thousand samples per shape in a serve run.
var shapeWeights = []float64{0.25, 0.20, 0.15, 0.15, 0.10, 0.15}

// genQueries draws a pool of distinct queries, each shape exactly its
// share of the mix, and a stream of n issues over it. Repeats in the
// stream let the check demand identical answers for identical (query,
// generation) pairs.
func genQueries(seed uint64, name string, pages []queenbee.Page, poolSize, n int) ([]querySpec, []int) {
	g := newQueryGen(seed, name, pages)
	var mix []string
	for i, sh := range shapes {
		for k := 0; k < int(shapeWeights[i]*float64(poolSize)+0.5); k++ {
			mix = append(mix, sh)
		}
	}
	poolSize = len(mix)
	pool := make([]querySpec, 0, poolSize)
	seen := make(map[string]bool, poolSize)
	for len(pool) < poolSize {
		q := g.next(mix[len(pool)])
		key := fmt.Sprintf("%s|%d|%v", q.raw, q.page, q.snippets)
		if seen[key] {
			continue
		}
		seen[key] = true
		pool = append(pool, q)
	}
	stream := make([]int, n)
	for i := range stream {
		stream[i] = g.rng.Intn(poolSize)
	}
	return pool, stream
}

// probeQueries asks for one sample page each by a word of the page and
// a site: filter on its exact URL, so the answer must be that page.
func probeQueries(seed uint64, pages []queenbee.Page, n int) []querySpec {
	g := newQueryGen(seed, "probes", pages)
	out := make([]querySpec, 0, n)
	for len(out) < n {
		i := g.page()
		w, t := g.word(i)
		url := pages[i].URL
		out = append(out, querySpec{
			shape: shapeSite,
			raw:   w + " site:" + url,
			page:  1,
			want:  expr{op: 'a', terms: []string{t}, site: url},
		})
	}
	return out
}

// mirrorWeb extends a corpus with near-duplicate mirror pages (the
// scraper copies ingest's MinHash dedup demotes): each mirror is a
// lightly revised copy of a page under a new URL, linked from that page,
// and carries one link that leaves the crawlable web.
func mirrorWeb(c *corpus.Corpus, seed uint64, mirrors int) []queenbee.Page {
	pages := corpusPages(c.Docs)
	rng := xrand.NewNamed(seed, "mirrors")
	for m := 0; m < mirrors; m++ {
		src := rng.Intn(len(c.Docs))
		doc := c.Revise(src, 1000+m, 0.02)
		url := fmt.Sprintf("dweb://mirror/page-%04d", m)
		pages = append(pages, queenbee.Page{
			URL:   url,
			Text:  doc.Text,
			Links: []string{fmt.Sprintf("dweb://offsite/page-%04d", m)},
		})
		pages[src].Links = append(pages[src].Links, url)
	}
	return pages
}

// sampleSeeds draws n distinct crawl seeds from pages.
func sampleSeeds(seed uint64, pages []queenbee.Page, n int) []string {
	rng := xrand.NewNamed(seed, "seeds")
	perm := rng.Perm(len(pages))
	out := make([]string, 0, n)
	for _, i := range perm[:n] {
		out = append(out, pages[i].URL)
	}
	return out
}

// publishBatches builds the serve-publish write stream: every batch
// publishes newPer unseen pages of c (from index first on) and revises
// revPer distinct already-published pages.
func publishBatches(c *corpus.Corpus, seed uint64, first, rounds, newPer, revPer int) [][]queenbee.Page {
	rng := xrand.NewNamed(seed, "publish")
	out := make([][]queenbee.Page, 0, rounds)
	next := first
	for r := 0; r < rounds; r++ {
		batch := corpusPages(c.Docs[next : next+newPer])
		next += newPer
		for _, i := range rng.Perm(first)[:revPer] {
			doc := c.Revise(i, r+1, 0.3)
			batch = append(batch, queenbee.Page{URL: doc.URL, Text: doc.Text, Links: doc.Links})
		}
		out = append(out, batch)
	}
	return out
}
