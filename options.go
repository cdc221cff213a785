package queenbee

import (
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// Option configures an Engine at construction.
type Option func(*core.Config)

// WithSeed sets the deterministic simulation seed.
func WithSeed(seed uint64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// WithPeers sets the number of plain DWeb devices in the swarm.
func WithPeers(n int) Option {
	return func(c *core.Config) { c.NumPeers = n }
}

// WithBees sets the number of worker bees.
func WithBees(n int) Option {
	return func(c *core.Config) { c.NumBees = n }
}

// WithShards sets the term-shard count of the distributed index.
func WithShards(n int) Option {
	return func(c *core.Config) { c.NumShards = n }
}

// WithQuorum sets how many bees verify each index/rank task.
func WithQuorum(q int) Option {
	return func(c *core.Config) { c.Contract.Quorum = q }
}

// WithRankWeight controls how strongly page rank blends into scores.
func WithRankWeight(w float64) Option {
	return func(c *core.Config) { c.RankWeight = w }
}

// WithBlockInterval sets the simulated time between sealed blocks.
func WithBlockInterval(d time.Duration) Option {
	return func(c *core.Config) { c.BlockInterval = d }
}

// WithReplication sets the DHT replication factor (bucket size K).
func WithReplication(k int) Option {
	return func(c *core.Config) { c.DHT.K = k }
}

// WithPopularityThreshold sets the page-rank threshold above which
// content providers earn popularity honey.
func WithPopularityThreshold(t float64) Option {
	return func(c *core.Config) { c.Contract.PopularityThreshold = t }
}

// WithSwarming stripes large-content downloads across all providers in
// parallel (BitTorrent-style), instead of pulling from one peer.
func WithSwarming(on bool) Option {
	return func(c *core.Config) { c.Peer.Swarming = on }
}

// WithStakeWeightedQuorum assigns task quorum seats with probability
// proportional to worker stake (Sybil-resistant seating).
func WithStakeWeightedQuorum(on bool) Option {
	return func(c *core.Config) { c.Contract.StakeWeightedQuorum = on }
}

// WithCacheBudget bounds the frontend's two query caches in bytes: the
// per-digest segment cache and the per-shard merged-chain cache. Both are
// LRU-evicted, so a long-lived serving deployment stays within budget
// under publish churn. Zero (or negative) selects the defaults.
func WithCacheBudget(segBytes, chainBytes int64) Option {
	return func(c *core.Config) {
		c.SegCacheBytes = segBytes
		c.ChainCacheBytes = chainBytes
	}
}

// WithFrontendPool sets the serving tier's size: n stateless frontends,
// each attached to its own peer with its own byte-budgeted caches,
// behind a deterministic least-loaded balancer (fewest in-flight, then
// least accumulated simulated serving time, then round-robin). Results
// are frontend-independent, so the pool size never changes responses —
// it divides the serving tier's simulated makespan, which
// Engine.PoolStats exposes per frontend. Non-positive selects 1.
func WithFrontendPool(n int) Option {
	return func(c *core.Config) { c.PoolSize = n }
}

// WithHedgedReads duplicates each query's slowest shard fetch on a
// second pool frontend: the first reply wins the latency, both replies
// pay their bytes and messages, and a fetch that failed on the primary
// frontend is rescued when the hedge succeeds. Requires
// WithFrontendPool(n ≥ 2); a size-1 pool runs unhedged.
func WithHedgedReads(on bool) Option {
	return func(c *core.Config) { c.HedgedReads = on }
}

// WithDefaultDeadline bounds the simulated latency of every query that
// carries no deadline of its own: once the accumulated simulated cost
// reaches d at a checkpoint, the remaining waves are abandoned and the
// query fails with ErrDeadlineExceeded plus a partial Explain trace.
// Deterministic per seed. Zero means no bound.
func WithDefaultDeadline(d time.Duration) Option {
	return func(c *core.Config) { c.DefaultDeadline = d }
}

// WithFaultPlan installs a deterministic fault schedule: as the engine
// seals blocks, simulated time advances through the plan's events —
// crashes, recoveries, partitions, lossy-link episodes — firing each at
// its scripted offset. Victim sampling is seeded by the plan, so the
// same plan on the same deployment always kills the same nodes. Pair
// with WithMaintenance and WithDegradedReads to study self-healing;
// docs/robustness.md has the contract.
func WithFaultPlan(p *netsim.FaultPlan) Option {
	return func(c *core.Config) { c.FaultPlan = p }
}

// WithMaintenance runs one self-healing pass after every protocol
// round: shard pointers and index stats replicated below K are
// republished, segments below K are re-seeded from a surviving replica
// (hash-verified), and live peers re-announce their provider records.
// Engine.RepairStats reports what the loops have done. Off by default —
// a healthy deployment's maintenance traffic is pure probe cost.
func WithMaintenance(on bool) Option {
	return func(c *core.Config) { c.Maintenance = on }
}

// WithDegradedReads lets a query whose wave lost some — but not all —
// shards return the partial answer it could assemble, tagged with a
// typed Degraded warning (failed shards, completeness fraction, cause)
// instead of failing with ErrShardUnavailable. Off by default: the
// all-or-nothing contract stands unless the deployment opts in.
func WithDegradedReads(on bool) Option {
	return func(c *core.Config) { c.DegradedReads = on }
}

// WithRankFullEvery sets the exactness escape hatch of delta page-rank
// epochs: every n-th epoch started by ComputeRanksDelta runs a full
// recompute instead of an incremental pass, bounding the drift the
// frozen-boundary approximation can accumulate. Zero selects the
// default cadence; negative disables full recomputes entirely (every
// epoch after the first runs delta). Engine.RankStatus reports the
// resulting staleness.
func WithRankFullEvery(n int) Option {
	return func(c *core.Config) { c.RankFullEvery = n }
}
