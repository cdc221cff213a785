package queenbee

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/netsim"
)

// Engine is a running QueenBee deployment (simulated swarm + chain +
// contract + serving tier). Create with New; drive with Publish / Run;
// ask with Query(...).Run().
//
// Concurrency: the query side — Query and QueryCtx builders, Fetch — is
// safe for concurrent use, and the per-link network streams make the
// same seed yield byte-identical results whether queries run
// sequentially or raced across goroutines (cmd/queenbeed serves HTTP on
// exactly this contract; docs/serving.md has the design). Queries are
// served by a pool of per-peer frontends behind a deterministic
// least-loaded balancer (WithFrontendPool); results are
// frontend-independent, so the pool size never changes responses, only
// simulated costs and serving makespan. Mutating methods (Publish,
// PublishBatch, Run, NewAccount, RegisterAd, Click, ComputeRanks, ...)
// remain a single deterministic driver: do not run them concurrently
// with each other or with queries. Inside that single driver the write
// side is itself concurrent — ProcessRound fans bee compute and shard
// materialization out as goroutine waves (docs/indexing.md) — without
// costing determinism: same-seed runs produce byte-identical DHT state
// whether rounds run parallel or sequential.
type Engine struct {
	// Cluster exposes the full simulation for advanced use (experiment
	// harnesses, fault injection). Most callers never need it.
	Cluster *core.Cluster
	pool    *core.FrontendPool

	// Accumulated ingest counters across every Crawl on this engine.
	// Guarded by its own mutex so IngestStats stays readable from
	// serving surfaces (queenbeed GET /stats) while a crawl runs.
	ingestMu sync.Mutex
	ingest   ingest.Stats
}

// Account is a funded identity that can publish, advertise and click.
type Account struct {
	name string
	acct *chain.Account
}

// Name returns the account's human-readable name.
func (a *Account) Name() string { return a.name }

// Address returns the account's chain address in hex.
func (a *Account) Address() string { return a.acct.Address().String() }

// Result is one ranked search hit.
type Result struct {
	URL     string
	Score   float64
	Rank    float64
	Snippet string // set by Query(...).WithSnippets()
}

// Ad is an advertisement attached to a search response.
type Ad struct {
	ID          uint64
	Keywords    []string
	BidPerClick uint64
}

// New boots a QueenBee deployment with the given options.
func New(opts ...Option) *Engine {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	cluster := core.NewCluster(cfg)
	return &Engine{
		Cluster: cluster,
		pool:    core.NewFrontendPool(cluster, cfg.PoolSize, cfg.HedgedReads, cfg.DefaultDeadline),
	}
}

// NewAccount creates and funds an identity. Funds are spendable after
// the next Run (or immediately: NewAccount seals a block).
func (e *Engine) NewAccount(name string, honey uint64) *Account {
	acct := e.Cluster.NewAccount(name, honey)
	e.Cluster.Seal()
	return &Account{name: name, acct: acct}
}

// Balance returns an account's honey balance.
func (e *Engine) Balance(a *Account) uint64 {
	return e.Cluster.Chain.State().Balance(a.acct.Address())
}

// Publish stores content on the DWeb, registers it through the smart
// contract, and drives one protocol round so the worker bees commit to
// the index task while its commit window is open.
func (e *Engine) Publish(owner *Account, url, text string, links []string) error {
	_, err := e.Cluster.Publish(owner.acct, e.Cluster.RandomPeer(), url, text, links)
	if err != nil {
		return err
	}
	e.Cluster.Seal()
	e.Cluster.ProcessRound()
	return nil
}

// Page is one document of a batch publish.
type Page = core.BatchPage

// ErrBatchRejected marks a publish batch refused by validation —
// pre-flight (empty, duplicate URL, foreign-owned URL) or the
// contract's atomic on-chain check. The deployment is unchanged; the
// batch is the caller's fault. Match with errors.Is; other PublishBatch
// errors are infrastructure failures (e.g. the content store).
var ErrBatchRejected = errors.New("queenbee: publish batch rejected")

// RoundReceipt reports one write-side protocol round: tasks
// materialized, wave vs serial simulated costs (their ratio is the
// concurrency speedup of the round engine), mutable-DHT write counters,
// and the round's error summary. Returned by PublishBatch and RunRound.
type RoundReceipt = core.RoundReceipt

// RoundError is one recorded write-path failure of a round (see
// RoundReceipt.Errors).
type RoundError = core.RoundError

// PublishBatch stores every page's content on the DWeb, registers all of
// them in ONE smart-contract transaction — which creates ONE index task
// for the whole batch, so the assigned quorum builds a single multi-doc
// segment — and drives one protocol round to index them. Ingesting N
// pages this way costs one commit-reveal cycle and O(shards) mutable
// DHT writes instead of N cycles and O(N·shards).
//
// The batch is atomic: if any page fails validation (foreign ownership,
// duplicate URL in the batch), nothing is stored or registered and the
// returned error matches ErrBatchRejected.
func (e *Engine) PublishBatch(owner *Account, pages []Page) (RoundReceipt, error) {
	rr, err := e.Cluster.IndexBatch(owner.acct, pages)
	if errors.Is(err, core.ErrBatchInvalid) {
		return RoundReceipt{}, fmt.Errorf("%w: %w", ErrBatchRejected, err)
	}
	return rr, err
}

// Run drives n protocol rounds (bees commit, reveal, materialize).
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Cluster.ProcessRound()
	}
}

// RunRound drives one protocol round and returns its full receipt —
// wave costs, DHT write counters and the error summary.
func (e *Engine) RunRound() RoundReceipt {
	return e.Cluster.ProcessRoundReceipt()
}

// RunUntilIdle drives rounds until no open tasks remain.
func (e *Engine) RunUntilIdle() {
	e.Cluster.RunUntilIdle(50)
}

// Fetch downloads and hash-verifies the content behind a search result.
func (e *Engine) Fetch(r Result) (string, error) {
	rec, ok := e.Cluster.QB.Page(r.URL)
	if !ok {
		return "", fmt.Errorf("queenbee: %q is not a registered page", r.URL)
	}
	//detlint:ignore costdrop legacy facade returns content only; cost-accounted fetches go through Frontend.FetchResult
	data, _, err := e.pool.Frontend(0).FetchResult(core.Result{URL: r.URL, CID: rec.CID})
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// ComputeRanks runs one distributed page-rank epoch across the worker
// bees (partitioned into `partitions` verified tasks) and returns the
// epoch number once finalized.
func (e *Engine) ComputeRanks(partitions int) uint64 {
	epoch := e.Cluster.StartRankEpoch(partitions)
	e.RunUntilIdle()
	return epoch
}

// ComputeRanksDelta runs one page-rank epoch like ComputeRanks, but
// lets the contract pick the cheap path: if a finalized epoch already
// exists (and the full-recompute cadence — WithRankFullEvery — is not
// due), the epoch is incremental. The bees then re-walk only the
// subgraph reachable from the pages published since the last epoch,
// warm-started from the finalized vector, instead of iterating the
// whole graph from scratch. RankStatus reports the accumulated
// approximation drift.
func (e *Engine) ComputeRanksDelta(partitions int) uint64 {
	epoch := e.Cluster.StartRankEpochDelta(partitions)
	e.RunUntilIdle()
	return epoch
}

// RankStatus is the rank-freshness summary: latest finalized epoch,
// latest finalized FULL epoch, delta epochs accumulated since, and
// pages dirtied since the last epoch snapshot. queenbeed serves it in
// the /stats write block.
type RankStatus = contracts.RankStaleness

// RankStatus reports the current rank freshness.
func (e *Engine) RankStatus() RankStatus {
	return e.Cluster.QB.RankStaleness()
}

// PageRank returns a page's finalized rank (0 if unranked).
func (e *Engine) PageRank(url string) float64 {
	return e.Cluster.QB.PageRank(url)
}

// PayPopularityRewards mints threshold honey to providers of popular
// pages for a finalized epoch. It returns an error if nothing was owed.
func (e *Engine) PayPopularityRewards(epoch uint64) error {
	tx := e.Cluster.PayPopularity(epoch)
	r := e.Cluster.Chain.Receipt(tx.Hash())
	if r == nil || !r.OK {
		return fmt.Errorf("queenbee: popularity payout: %s", receiptErr(r))
	}
	return nil
}

// RegisterAd escrows a budget and opens a pay-per-click campaign.
func (e *Engine) RegisterAd(advertiser *Account, keywords []string, bidPerClick, budget uint64) (uint64, error) {
	tx := e.Cluster.SubmitCall(advertiser.acct, contracts.MethodRegisterAd,
		contracts.RegisterAdParams{Keywords: keywords, BidPerClick: bidPerClick}, budget)
	e.Cluster.Seal()
	r := e.Cluster.Chain.Receipt(tx.Hash())
	if r == nil || !r.OK {
		return 0, fmt.Errorf("queenbee: register ad: %s", receiptErr(r))
	}
	// The campaign ID comes from the registration event the contract
	// emitted for exactly this transaction — deterministic even when
	// other registrations land in the same block.
	for _, ev := range e.Cluster.Chain.EventsFor(tx.Hash()) {
		if ev.Type != contracts.EventAdRegistered {
			continue
		}
		id, err := strconv.ParseUint(ev.Attrs["ad"], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("queenbee: register ad: bad campaign id %q in event", ev.Attrs["ad"])
		}
		return id, nil
	}
	return 0, fmt.Errorf("queenbee: register ad: transaction emitted no registration event")
}

// Click records a paid click on an ad displayed on a result page. The
// bid moves from the advertiser's budget to the page's creator and the
// worker pool.
func (e *Engine) Click(user *Account, adID uint64, url string) error {
	tx := e.Cluster.SubmitCall(user.acct, contracts.MethodClick,
		contracts.ClickParams{AdID: adID, URL: url}, 0)
	e.Cluster.Seal()
	r := e.Cluster.Chain.Receipt(tx.Hash())
	if r == nil || !r.OK {
		return fmt.Errorf("queenbee: click: %s", receiptErr(r))
	}
	return nil
}

// Summary reports deployment-level counters.
type Summary struct {
	Pages          int
	Height         uint64
	HoneySupply    uint64
	TasksOpen      int
	TasksFinalized int
	TasksFailed    int
	Workers        int
}

// CacheStats is a snapshot of the query frontends' cache occupancy and
// traffic counters (re-exported for serving surfaces like queenbeed).
type CacheStats = core.CacheStats

// RepairStats is a snapshot of the self-healing loops' accumulated
// counters: keys probed, records republished, segments re-seeded or
// lost, providers re-announced, and the simulated traffic spent.
type RepairStats = core.RepairStats

// WriteStats is the write path's cumulative ledger: rounds driven,
// segment/pointer/stats puts, compactions, ingested vs compacted bytes
// (their ratio is the write amplification E19 tabulates), and the
// current per-tier segment histogram across all shards.
type WriteStats = core.WriteStats

// Degraded is the typed warning a partial answer carries under
// WithDegradedReads: which shards failed, the completeness fraction,
// and the first underlying cause.
type Degraded = core.Degraded

// Readiness is the serving-health summary behind queenbeed's /readyz:
// per-shard pointer reachability through a live DHT node.
type Readiness = core.Readiness

// FaultPlan is a deterministic schedule of churn events, installed with
// WithFaultPlan (re-exported from the network simulation).
type FaultPlan = netsim.FaultPlan

// FaultEvent is one scripted entry of a FaultPlan.
type FaultEvent = netsim.FaultEvent

// FaultKind discriminates FaultEvent entries.
type FaultKind = netsim.FaultKind

// Re-exported fault kinds, so fault plans can be scripted without
// importing the network simulation.
const (
	FaultCrash     = netsim.FaultCrash
	FaultRecover   = netsim.FaultRecover
	FaultPartition = netsim.FaultPartition
	FaultHeal      = netsim.FaultHeal
	FaultDropRate  = netsim.FaultDropRate
)

// PoolStats is a snapshot of the serving tier: per-frontend load
// counters (served, in-flight, accumulated simulated busy time, hedges,
// caches) plus the deadline-miss count.
type PoolStats = core.PoolStats

// FrontendLoad is one frontend's serving counters (see PoolStats).
type FrontendLoad = core.FrontendLoad

// CacheStats reports cache occupancy against the configured byte
// budgets, aggregated across every frontend in the pool (each frontend
// owns independent caches; budgets and counters are summed).
func (e *Engine) CacheStats() CacheStats {
	return e.pool.CacheStatsSnapshot()
}

// PoolStats reports the serving tier's per-frontend load and the
// deadline-miss count.
func (e *Engine) PoolStats() PoolStats {
	return e.pool.Stats()
}

// RepairStats reports what the self-healing loops have done so far
// (WithMaintenance runs them after every round; RunMaintenance drives a
// pass by hand).
func (e *Engine) RepairStats() RepairStats {
	return e.Cluster.RepairStats()
}

// WriteStats reports the engine's cumulative write-path ledger. Served
// from in-memory accumulators — no DHT traffic, so calling it never
// perturbs the simulation's RNG draws.
func (e *Engine) WriteStats() WriteStats {
	return e.Cluster.WriteStats()
}

// RunMaintenance drives one self-healing pass — republish, re-seed,
// reprovide — and returns what this pass did. Useful for deployments
// that schedule repair themselves instead of opting into
// WithMaintenance's per-round hook.
func (e *Engine) RunMaintenance() RepairStats {
	return e.Cluster.RunMaintenance()
}

// Ready probes every shard pointer and reports serving readiness: the
// deployment is ready when each shard's index is reachable through a
// live DHT node (never-written shards count healthy). queenbeed serves
// this as /readyz.
func (e *Engine) Ready() Readiness {
	return e.Cluster.Readiness()
}

// Stats returns the current deployment summary.
func (e *Engine) Stats() Summary {
	open, finalized, failed := e.Cluster.QB.TaskCounts()
	return Summary{
		Pages:          e.Cluster.QB.PageCount(),
		Height:         e.Cluster.Chain.Height(),
		HoneySupply:    e.Cluster.Chain.State().Supply(),
		TasksOpen:      open,
		TasksFinalized: finalized,
		TasksFailed:    failed,
		Workers:        len(e.Cluster.QB.ActiveWorkers()),
	}
}

func receiptErr(r *chain.Receipt) string {
	if r == nil {
		return "no receipt"
	}
	return r.Err
}
