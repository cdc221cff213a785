package main

import (
	"fmt"
	"sort"
	"strings"

	queenbee "repro"
	"repro/internal/index"
)

// version is one published text of a URL, live from generation gen on.
type version struct {
	gen   int
	terms []string // analyzed tokens in position order
}

// oracle holds every published text of every URL by generation, so a
// recorded answer can be checked against the index it was served from.
// It is built from the page texts with index.Analyze and never asks the
// engine.
type oracle struct {
	urls []string             // sorted
	docs map[string][]version // url → versions, gen ascending
}

func newOracle() *oracle { return &oracle{docs: make(map[string][]version)} }

// publish records pages as live from generation gen on.
func (o *oracle) publish(gen int, pages []queenbee.Page) {
	for _, p := range pages {
		toks := index.Analyze(p.Text)
		terms := make([]string, len(toks))
		for i, t := range toks {
			terms[i] = t.Term
		}
		if _, ok := o.docs[p.URL]; !ok {
			o.urls = append(o.urls, p.URL)
		}
		o.docs[p.URL] = append(o.docs[p.URL], version{gen: gen, terms: terms})
	}
	sort.Strings(o.urls)
}

// textAt returns the terms of url live at generation gen.
func (o *oracle) textAt(url string, gen int) ([]string, bool) {
	vs := o.docs[url]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].gen <= gen {
			return vs[i].terms, true
		}
	}
	return nil, false
}

// matches reports whether a text satisfies e (ignoring the site filter).
func (e expr) matches(terms []string) bool {
	has := func(t string) bool {
		for _, x := range terms {
			if x == t {
				return true
			}
		}
		return false
	}
	switch e.op {
	case 't', 'a':
		for _, t := range e.terms {
			if !has(t) {
				return false
			}
		}
		return true
	case 'o':
		for _, t := range e.terms {
			if has(t) {
				return true
			}
		}
		return false
	case 'p':
		n := len(e.terms)
		for i := 0; i+n <= len(terms); i++ {
			ok := true
			for j, t := range e.terms {
				if terms[i+j] != t {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("unknown expr op %q", e.op))
}

// matchSet returns the URLs matching e at generation gen.
func (o *oracle) matchSet(e expr, gen int) map[string]bool {
	out := make(map[string]bool)
	for _, url := range o.urls {
		if e.site != "" && !strings.HasPrefix(url, e.site) {
			continue
		}
		if terms, ok := o.textAt(url, gen); ok && e.matches(terms) {
			out[url] = true
		}
	}
	return out
}

// answer is one recorded query outcome.
type answer struct {
	q     int // index into the workload's query list
	gen   int // publish generation the query ran at
	total int
	urls  []string
	score []float64
	snips []string
	err   string // "" on success
}

// key is the identity two answers must agree on.
func (a answer) key() string {
	return fmt.Sprintf("%d@%d", a.q, a.gen)
}

// digest renders the result list; equal (query, generation) pairs must
// give equal digests.
func (a answer) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", a.total)
	for i, u := range a.urls {
		fmt.Fprintf(&b, "|%s %.12g", u, a.score[i])
	}
	return b.String()
}

// checkAnswers validates every recorded answer against the oracle and
// returns the indices of the answers that fail, each with its reason.
// An answer fails if it errored, if Total differs from the oracle's
// match count, if a result lies outside the match set or repeats, if
// the page length is wrong, if scores rise, if a requested snippet is
// empty, or if another answer to the same (query, generation) differs.
func checkAnswers(o *oracle, qs []querySpec, answers []answer) map[int]string {
	bad := make(map[int]string)
	sets := make(map[string]map[string]bool)
	first := make(map[string]string)
	for i, a := range answers {
		if a.err != "" {
			bad[i] = a.err
			continue
		}
		q := qs[a.q]
		key := a.key()
		set, ok := sets[key]
		if !ok {
			set = o.matchSet(q.want, a.gen)
			sets[key] = set
		}
		if reason := checkOne(q, a, set); reason != "" {
			bad[i] = reason
			continue
		}
		d := a.digest()
		if prev, ok := first[key]; !ok {
			first[key] = d
		} else if prev != d {
			bad[i] = fmt.Sprintf("query %q at generation %d answered differently on repeat", q.raw, a.gen)
		}
	}
	return bad
}

func checkOne(q querySpec, a answer, set map[string]bool) string {
	if a.total != len(set) {
		return fmt.Sprintf("query %q at generation %d: Total %d, oracle counts %d", q.raw, a.gen, a.total, len(set))
	}
	want := a.total - (q.page-1)*pageSize
	want = max(0, min(want, pageSize))
	if len(a.urls) != want {
		return fmt.Sprintf("query %q page %d: %d results, want %d", q.raw, q.page, len(a.urls), want)
	}
	seen := make(map[string]bool, len(a.urls))
	for i, u := range a.urls {
		if !set[u] {
			return fmt.Sprintf("query %q at generation %d: result %s does not match", q.raw, a.gen, u)
		}
		if seen[u] {
			return fmt.Sprintf("query %q: result %s repeats", q.raw, u)
		}
		seen[u] = true
		if i > 0 && a.score[i] > a.score[i-1] {
			return fmt.Sprintf("query %q: scores rise at rank %d", q.raw, i+1)
		}
		if q.snippets && a.snips[i] == "" {
			return fmt.Sprintf("query %q: empty snippet for %s", q.raw, u)
		}
	}
	return ""
}
