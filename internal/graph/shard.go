package graph

// This file implements the row partition the frontier-exchange kernels
// run over (internal/rspq/shardbfs.go). A shard is a contiguous vertex
// range [lo, hi) of the one graph: it owns the forward rows of its
// sources and the reverse rows of its targets, which every kernel reads
// through the pinned View like any other row. Nothing is copied — the
// partition is three integers — so configuring shards costs no memory
// and a compaction never has a second structure to rebuild.
//
// The partition is the architectural seed of the multi-machine frontier
// exchange named in the ROADMAP: search state is owner-partitioned by
// row range, so promoting a shard to a remote worker changes where the
// outboxes are flushed, not the algorithm.

// Partition splits the vertex rows [0, n) of a view into K contiguous
// ranges of equal width (the last may be narrower). The zero value is
// the unsharded partition, K = 0.
type Partition struct {
	k, rows, n int
}

// newPartition returns the k-shard partition of n rows (k <= 0:
// unsharded).
func newPartition(n, k int) Partition {
	if k <= 0 {
		return Partition{}
	}
	rows := (n + k - 1) / k
	if rows < 1 {
		rows = 1 // empty graph: K empty shards
	}
	return Partition{k: k, rows: rows, n: n}
}

// NumShards returns the partition size K (0 = unsharded).
func (pt Partition) NumShards() int { return pt.k }

// ShardOf returns the shard owning vertex v's rows. K must be > 0.
func (pt Partition) ShardOf(v int) int { return v / pt.rows }

// Bounds returns the row range [lo, hi) of shard s.
func (pt Partition) Bounds(s int) (lo, hi int) {
	lo = min(s*pt.rows, pt.n)
	hi = min(lo+pt.rows, pt.n)
	return lo, hi
}

// SetShards configures the row partition every view pinned from now on
// carries (View.Partition), picked up by the frontier-exchange query
// kernels. k <= 0 disables sharding (the default). Like every other
// structural call, SetShards must not race queries.
func (g *Graph) SetShards(k int) {
	k = max(k, 0)
	if k == g.shardCount {
		return
	}
	g.shardCount = k
	g.view = nil // a cached view carries the old partition
}

// ShardCount returns the configured partition size (0 = unsharded).
func (g *Graph) ShardCount() int { return g.shardCount }
