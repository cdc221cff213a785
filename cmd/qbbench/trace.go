package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	queenbee "repro"
	"repro/internal/netsim"
	"repro/internal/store"
)

// span is one timed interval. Op spans wrap calls into the engine's
// public API; handler spans wrap one inbound RPC at a peer. Times are
// nanoseconds since the tracer started.
type span struct {
	id, parent int64
	req        int64 // request ID of the op the span belongs to
	name       int32 // index into tracer.names
	start, end int64
}

// tracer records spans in memory. A nil *tracer records nothing, so
// untraced runs pay one nil check per op and never touch a handler.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	cur    atomic.Int64 // innermost open op span; handlers parent on it
	curReq atomic.Int64

	mu    sync.Mutex
	spans []span
	names []string
	index map[string]int32
	types sync.Map // reflect.Type → int32 name index of RPC request types
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), index: make(map[string]int32)}
}

func (t *tracer) nameID(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.index[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens an op span under the current one. A span opened with no
// op open starts a new request. end closes it and restores the parent.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	nid := t.nameID(name)
	id := t.nextID.Add(1)
	parent := t.cur.Load()
	req := t.curReq.Load()
	if parent == 0 {
		req = id
		t.curReq.Store(req)
	}
	t.cur.Store(id)
	start := t.now()
	return func() {
		end := t.now()
		t.mu.Lock()
		t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: nid, start: start, end: end})
		t.mu.Unlock()
		t.cur.Store(parent)
		if parent == 0 {
			t.curReq.Store(0)
		}
	}
}

// reset drops every recorded span (a repeated set-up keeps only the
// spans of the engine that goes on to serve).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// rpcName names a request by its Go type ("dht.findNodeReq",
// "store.blockReq"), which separates DHT messages from block requests.
func (t *tracer) rpcName(req any) int32 {
	typ := reflect.TypeOf(req)
	if id, ok := t.types.Load(typ); ok {
		return id.(int32)
	}
	id := t.nameID("rpc:" + typ.String())
	t.types.Store(typ, id)
	return id
}

// wrap re-registers every peer address of the deployment with a handler
// that records a span around the peer's own HandleRPC. Register keeps
// each node's position and fault state, so the simulation is unchanged.
func (t *tracer) wrap(e *queenbee.Engine) {
	if t == nil {
		return
	}
	peers := append([]*store.Peer(nil), e.Cluster.Peers...)
	for _, b := range e.Cluster.Bees {
		peers = append(peers, b.Peer)
	}
	for _, p := range peers {
		e.Cluster.Net.Register(p.Addr(), func(from netsim.NodeID, req any) (any, error) {
			name := t.rpcName(req)
			parent, reqID := t.cur.Load(), t.curReq.Load()
			start := t.now()
			resp, err := p.HandleRPC(from, req)
			end := t.now()
			t.mu.Lock()
			t.spans = append(t.spans, span{parent: parent, req: reqID, name: name, start: start, end: end})
			t.mu.Unlock()
			return resp, err
		})
	}
}

// spanJSON is the on-disk form of a span.
type spanJSON struct {
	ID      int64  `json:"id,omitempty"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// write stores every span as gzipped JSON lines, sorted by start.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	spans := append([]span(nil), t.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for _, s := range spans {
		rec := spanJSON{ID: s.id, Parent: s.parent, Req: s.req, Name: t.names[s.name], StartNS: s.start, EndNS: s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes sums, over the op spans named opName, the time inside the
// op not covered by any handler span (self time), and the handler span
// time and count per RPC name.
type layerTimes struct {
	selfNS    int64
	handlerNS map[string]int64
	calls     map[string]int64
}

func (t *tracer) layerTimes(opName string) layerTimes {
	lt := layerTimes{handlerNS: make(map[string]int64), calls: make(map[string]int64)}
	if t == nil {
		return lt
	}
	want, ok := t.index[opName]
	if !ok {
		return lt
	}
	// An op's subtree is the spans whose ancestry reaches it.
	parentOf := make(map[int64]int64)
	isOp := make(map[int64]bool)
	for _, s := range t.spans {
		if s.id != 0 {
			parentOf[s.id] = s.parent
			if s.name == want {
				isOp[s.id] = true
			}
		}
	}
	under := func(id int64) int64 {
		for id != 0 {
			if isOp[id] {
				return id
			}
			id = parentOf[id]
		}
		return 0
	}
	children := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.id != 0 {
			continue
		}
		op := under(s.parent)
		if op == 0 {
			continue
		}
		name := strings.TrimPrefix(t.names[s.name], "rpc:")
		lt.handlerNS[name] += s.end - s.start
		lt.calls[name]++
		children[op] = append(children[op], [2]int64{s.start, s.end})
	}
	for _, s := range t.spans {
		if s.id == 0 || s.name != want {
			continue
		}
		lt.selfNS += (s.end - s.start) - covered(children[s.id])
	}
	return lt
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] > curE:
			total += curE - curS
			curS, curE = x[0], x[1]
		case x[1] > curE:
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
