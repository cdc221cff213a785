package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	queenbee "repro"
)

func testOracle() (*oracle, []querySpec) {
	o := newOracle()
	o.publish(0, []queenbee.Page{
		{URL: "dweb://wiki/page-0001", Text: "honey bees build combs"},
		{URL: "dweb://wiki/page-0002", Text: "wax combs hold honey"},
		{URL: "dweb://wiki/page-0010", Text: "bees dance"},
	})
	o.publish(1, []queenbee.Page{{URL: "dweb://wiki/page-0010", Text: "honey dance"}})
	honey, _ := singleTerm("honey")
	bees, _ := singleTerm("bees")
	combs, _ := singleTerm("combs")
	qs := []querySpec{
		{shape: shapeTerm, raw: "honey", page: 1, want: expr{op: 't', terms: []string{honey}}},
		{shape: shapePhrase, raw: `"honey bees"`, page: 1, want: expr{op: 'p', terms: []string{honey, bees}}},
		{shape: shapeSite, raw: "combs site:dweb://wiki/page-000", page: 1, want: expr{op: 'a', terms: []string{combs}, site: "dweb://wiki/page-000"}},
		{shape: shapeOr, raw: "bees OR combs", page: 1, want: expr{op: 'o', terms: []string{bees, combs}}},
	}
	return o, qs
}

func TestOracleSemantics(t *testing.T) {
	o, qs := testOracle()
	cases := []struct {
		q, gen int
		want   []string
	}{
		{0, 0, []string{"dweb://wiki/page-0001", "dweb://wiki/page-0002"}},
		{0, 1, []string{"dweb://wiki/page-0001", "dweb://wiki/page-0002", "dweb://wiki/page-0010"}},
		{1, 0, []string{"dweb://wiki/page-0001"}},
		{2, 0, []string{"dweb://wiki/page-0001", "dweb://wiki/page-0002"}},
		{3, 0, []string{"dweb://wiki/page-0001", "dweb://wiki/page-0002", "dweb://wiki/page-0010"}},
		{3, 1, []string{"dweb://wiki/page-0001", "dweb://wiki/page-0002"}},
	}
	for _, c := range cases {
		set := o.matchSet(qs[c.q].want, c.gen)
		var got []string
		for u := range set {
			got = append(got, u)
		}
		sort.Strings(got)
		if len(got) != len(c.want) {
			t.Errorf("%s at generation %d: got %v, want %v", qs[c.q].raw, c.gen, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s at generation %d: got %v, want %v", qs[c.q].raw, c.gen, got, c.want)
				break
			}
		}
	}
}

func TestCorruptedAnswerRejected(t *testing.T) {
	o, qs := testOracle()
	good := answer{q: 0, gen: 0, total: 2,
		urls:  []string{"dweb://wiki/page-0002", "dweb://wiki/page-0001"},
		score: []float64{2, 1}, snips: []string{"", ""}}
	if bad := checkAnswers(o, qs, []answer{good, good}); len(bad) != 0 {
		t.Fatalf("a correct answer was rejected: %v", bad)
	}
	corrupt := map[string]func(a *answer){
		"total off by one":      func(a *answer) { a.total++ },
		"result outside match":  func(a *answer) { a.urls[1] = "dweb://wiki/page-0010" },
		"result repeated":       func(a *answer) { a.urls[1] = a.urls[0] },
		"result missing":        func(a *answer) { a.urls, a.score, a.snips = a.urls[:1], a.score[:1], a.snips[:1] },
		"scores rise":           func(a *answer) { a.score[1] = 3 },
		"stale generation":      func(a *answer) { a.gen = 1 },
		"error":                 func(a *answer) { a.err = "query failed" },
		"empty snippet":         func(a *answer) { a.q = 4 },
		"differs on repeat":     func(a *answer) { a.urls[0], a.urls[1] = a.urls[1], a.urls[0]; a.score[0], a.score[1] = 2, 2 },
		"wrong page of results": func(a *answer) { a.q = 5 },
	}
	specs := append(append([]querySpec(nil), qs...),
		querySpec{shape: shapeTerm, raw: "honey", page: 1, snippets: true, want: qs[0].want},
		querySpec{shape: shapePage2, raw: "honey", page: 2, want: qs[0].want},
	)
	for name, mutate := range corrupt {
		a := good
		a.urls = append([]string(nil), good.urls...)
		a.score = append([]float64(nil), good.score...)
		a.snips = append([]string(nil), good.snips...)
		mutate(&a)
		bad := checkAnswers(o, specs, []answer{good, a})
		if _, ok := bad[1]; !ok {
			t.Errorf("%s: corrupted answer accepted", name)
		}
		if _, ok := bad[0]; ok {
			t.Errorf("%s: the correct answer was rejected: %s", name, bad[0])
		}
	}
}

// TestSpecsMatchBenchmarkJSON keeps the reported metric names and units
// in step with BENCHMARK.json at the repository root.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []spec, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Errorf("%s: code reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit || got[i].better != want[i].Better {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", endToEndSpecs, bj.EndToEnd)
	compare("per_layer", perLayerSpecs, bj.PerLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code has %d", len(bj.Workloads), len(workloads))
	}
}

// TestBaselineMatchesCode keeps BASELINE.json, which carries each
// workload's configuration and each metric's layer, in step with the
// code: the same workloads and metrics, and config strings that quote
// the sizes the code runs.
func TestBaselineMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads map[string]map[string]string
		Metrics   map[string]json.RawMessage
		Baseline  struct {
			Workloads map[string]map[string]json.RawMessage
		}
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		if _, ok := b.Workloads[name]; !ok {
			t.Errorf("BASELINE.json has no config for workload %q", name)
		}
		if _, ok := b.Baseline.Workloads[name]; !ok {
			t.Errorf("BASELINE.json has no baseline for workload %q", name)
		}
	}
	if len(b.Workloads) != len(workloads) || len(b.Baseline.Workloads) != len(workloads) {
		t.Errorf("BASELINE.json: %d configs and %d baselines for %d workloads", len(b.Workloads), len(b.Baseline.Workloads), len(workloads))
	}
	all := append(append([]spec(nil), endToEndSpecs...), perLayerSpecs...)
	for _, s := range all {
		if _, ok := b.Metrics[s.name]; !ok {
			t.Errorf("BASELINE.json does not describe metric %s", s.name)
		}
	}
	if len(b.Metrics) != len(all) {
		t.Errorf("BASELINE.json describes %d metrics, code reports %d", len(b.Metrics), len(all))
	}
	for w, row := range b.Baseline.Workloads {
		for _, s := range endToEndSpecs {
			if _, ok := row[s.name]; !ok {
				t.Errorf("BASELINE.json baseline of %s lacks %s", w, s.name)
			}
		}
	}
	for _, c := range []struct {
		workload, field string
		n               int
	}{
		{"serve", "index", serveDocs},
		{"serve", "ops", serveQPS},
		{"serve-publish", "index", pubDocs},
		{"serve-publish", "ops", pubQueries},
		{"crawl", "index", crawlDocsPerSec},
		{"crawl", "ops", crawlQPS},
	} {
		if s := b.Workloads[c.workload][c.field]; !strings.Contains(s, fmt.Sprint(c.n)) {
			t.Errorf("BASELINE.json %s %s does not quote %d: %q", c.workload, c.field, c.n, s)
		}
	}
}
