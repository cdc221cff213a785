// Command qbbench is QueenBee's end-to-end benchmark. It runs one named
// workload against the public queenbee.Engine API, checks every answer
// against an oracle built from the published page texts, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	qbbench --workload serve --seed 1 --seconds 10 --trace 0
//
// Workloads: serve (read-only warm index, two closed-loop clients),
// crawl (streaming crawl of a fresh corpus, then queries over it) and
// serve-publish (serve's clients beside a publisher). With --trace 0 the
// metrics are the end-to-end ones; --trace 1 runs the same ops with one
// client, records spans around every public call and every inbound RPC,
// writes them to .bench_build/spans, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs and ops")
	seconds := flag.Int("seconds", 10, "run length; op counts scale with it")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	clients := flag.Int("clients", 2, "closed-loop query clients (traced runs use 1)")
	record := flag.String("record", "", "write answers, simulated costs and counters here, for comparing runs")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *clients < 1 {
		fmt.Fprintf(os.Stderr, "qbbench: need --workload %s, --seconds ≥ 1, --trace 0|1, --clients ≥ 1\n", workloadNames())
		return 2
	}
	r := &run{seed: *seed, clients: *clients, rep: -1}
	if *trace == 1 {
		r.tr = newTracer()
		r.clients = 1
	}
	fn(r, *seconds)
	if r.e == nil {
		fmt.Fprintf(os.Stderr, "qbbench: %s: set-up failed\n", *workload)
		for _, p := range r.problems {
			fmt.Fprintln(os.Stderr, "  ", p)
		}
		return 1
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", "spans", *workload+".jsonl.gz")
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "qbbench: writing spans: %v\n", err)
			return 1
		}
	}
	if *record != "" {
		if err := r.writeRecord(*record); err != nil {
			fmt.Fprintf(os.Stderr, "qbbench: writing record: %v\n", err)
			return 1
		}
	}

	e2e := r.endToEnd()
	detail := r.detail(e2e)
	var out map[string]metric
	if r.tr == nil {
		out = e2e
	} else {
		out = r.perLayer()
	}
	// heap_mib is read last, once the harness has let go of its records
	// and spans, so it covers the engine alone. detail holds e2e, so it
	// reports the same figure.
	e2e["heap_mib"] = metric{Value: r.engineHeapMiB(), Unit: "MiB"}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "qbbench: FAIL:", p)
	}
	if err := printJSON(map[string]any{"detail": detail}); err != nil {
		return 1
	}
	res := result{Correct: r.failed == 0 && !r.wedged, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: out}
	if err := printJSON(res); err != nil {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qbbench: %v\n", err)
		return err
	}
	fmt.Println(string(b))
	return nil
}
