package rspq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/psitr"
)

// This file implements the long-lived serving engine. A Solver answers
// one query at a time and a BatchSolver shares per-target tables within
// one batch; an Engine makes those tables survive ACROSS queries and
// batches. It owns a frozen view of one graph plus two cache tiers:
//
//   - a table cache holding the per-(language, target) pruning tables
//     of every tier — the baseline's product co-reachability bitset,
//     the walk-reduction tiers' backward-BFS distance + successor
//     arrays, and the summary solver's per-sequence position-NFA
//     co-reachability bitsets;
//   - a result cache for hot (language, x, y) answers.
//
// Every key carries the graph's mutation epoch (graph.Graph.Epoch), so
// a mutation invalidates all cached data automatically: the next query
// observes the bumped epoch, re-freezes the snapshot, and every lookup
// under the new epoch misses. Stale entries age out of the LRU on
// their own — no explicit purge calls anywhere.
//
// Engines are safe for concurrent use. Graph mutations must still be
// externally synchronized with in-flight queries (the graph's own
// contract); the epoch machinery guarantees that once a mutation
// happens-before a query, no table or result from the old generation
// can be served.

// Default cache budgets; override per tier via EngineConfig.
const (
	DefaultTableBytes  = 64 << 20 // 64 MiB of pruning tables
	DefaultResultBytes = 16 << 20 // 16 MiB of hot results
)

// DefaultCompactDelta is the default pending-delta watermark (adds +
// removes) above which NeedsCompaction asks for a background
// compaction; override via EngineConfig.CompactDelta.
const DefaultCompactDelta = 4096

// EngineConfig sizes an Engine's cache tiers and worker pool.
type EngineConfig struct {
	// TableBytes is the byte budget of the pruning-table cache. Zero
	// selects DefaultTableBytes; a negative value disables the tier.
	TableBytes int64
	// ResultBytes is the byte budget of the result cache. Zero selects
	// DefaultResultBytes; a negative value disables the tier.
	ResultBytes int64
	// Workers sizes the BatchSolve worker pool; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// Shards configures the graph's snapshot partition: when > 0 the
	// engine calls g.SetShards(Shards) and every backward product
	// search runs as a bulk-synchronous frontier exchange over the
	// row-range shards (shardbfs.go), with workers capped at
	// min(Shards, GOMAXPROCS). 0 — the zero value — picks a shard count
	// adaptively from the graph's edge count and GOMAXPROCS
	// (adaptiveShards), unless the caller already configured one via
	// g.SetShards; small graphs stay unsharded. A negative value opts
	// out of the adaptive default and leaves the graph's configuration
	// untouched. EngineStats.ShardsAdaptive reports whether the running
	// partition was chosen adaptively.
	Shards int
	// CompactDelta is the pending-delta watermark (edges added plus
	// edges tombstoned since the last freeze) above which
	// NeedsCompaction reports true, asking the serving layer to schedule
	// a background Compact. Zero selects DefaultCompactDelta; a negative
	// value disables the watermark (NeedsCompaction always false).
	CompactDelta int
	// Metrics, when non-nil, is the registry the engine registers its
	// series on (so a serving layer can expose engine and server
	// metrics from one endpoint); nil makes the engine create its own,
	// reachable via Engine.Metrics. A registry should back at most one
	// engine — a second engine would share and double-count the series.
	Metrics *metrics.Registry
	// Checkpoint, when non-nil, runs at the end of every Compact that
	// merged delta, with the merged CSR installed and under the same
	// external synchronization as the compaction itself. The serving
	// layer points it at persist.DB.Checkpoint so every background
	// compaction also publishes a durable snapshot and truncates the
	// write-ahead log.
	Checkpoint func()
}

// Adaptive shard sizing (EngineConfig.Shards == 0): graphs below
// adaptiveMinEdges stay unsharded (the exchange's barriers would cost
// more than the sweep), larger ones get one shard per
// adaptiveEdgesPerShard edges — at least one per processor so the
// exchange can use every core, capped at adaptiveMaxShards to bound
// the K×K outbox matrix.
const (
	adaptiveMinEdges      = 1 << 17
	adaptiveEdgesPerShard = 1 << 16
	adaptiveMaxShards     = 64
)

// adaptiveShards picks the default shard count for a graph with the
// given edge count on procs processors; 0 means stay unsharded.
func adaptiveShards(edges, procs int) int {
	if edges < adaptiveMinEdges {
		return 0
	}
	k := edges / adaptiveEdgesPerShard
	if k < procs {
		k = procs
	}
	if k > adaptiveMaxShards {
		k = adaptiveMaxShards
	}
	return k
}

// EngineStats is a point-in-time snapshot of an Engine's counters; the
// cache stats make hits, misses and evictions of both tiers observable,
// and the freeze counters split the graph's CSR builds into full
// rebuilds versus incremental delta merges — on a streaming workload
// IncrementalFreezes should dominate (see Engine.Stats).
type EngineStats struct {
	Epoch              uint64 `json:"epoch"`
	Algorithm          string `json:"algorithm"`
	Queries            int64  `json:"queries"`
	Batches            int64  `json:"batches"`
	BatchPairs         int64  `json:"batch_pairs"`
	SnapshotRebuilds   int64  `json:"snapshot_rebuilds"`
	FullFreezes        uint64 `json:"full_freezes"`
	IncrementalFreezes uint64 `json:"incremental_freezes"`
	// Shards is the snapshot partition size (0 = unsharded),
	// ShardsAdaptive whether the engine picked it (EngineConfig.Shards
	// == 0) rather than the caller, and ShardEdges the per-shard edge
	// counts of the current snapshot. ExchangeRounds is the cumulative
	// bulk-synchronous round count of the frontier-exchange kernels —
	// always TopDownRounds + BottomUpRounds, which split it by the
	// direction each round ran in (dirbfs.go). BitParallelHits counts
	// backward sweeps served by the packed ≤64-state kernels
	// (bitbfs.go), sequential and sharded alike.
	Shards          int   `json:"shards,omitempty"`
	ShardsAdaptive  bool  `json:"shards_adaptive,omitempty"`
	ShardEdges      []int `json:"shard_edges,omitempty"`
	ExchangeRounds  int64 `json:"exchange_rounds,omitempty"`
	TopDownRounds   int64 `json:"top_down_rounds,omitempty"`
	BottomUpRounds  int64 `json:"bottom_up_rounds,omitempty"`
	BitParallelHits int64 `json:"bit_parallel_hits,omitempty"`
	// DirectionSwitches counts the rounds where the α/β heuristic
	// flipped expansion direction mid-search (dirbfs.go). DirAlpha and
	// DirBeta are the thresholds currently in effect — the defaults
	// until the auto-tuner's first adjustment — and TunerAdjustments
	// counts how many times the tuner has adopted new ones (tuner.go).
	DirectionSwitches int64   `json:"direction_switches,omitempty"`
	DirAlpha          float64 `json:"dir_alpha,omitempty"`
	DirBeta           float64 `json:"dir_beta,omitempty"`
	TunerAdjustments  int64   `json:"tuner_adjustments,omitempty"`
	// MVCC-lite visibility: the graph's pending mutation delta (edges
	// added / tombstoned since the last freeze), how many queries were
	// served through an overlay view versus a pass-through snapshot,
	// and how many background compactions (Engine.Compact) have merged
	// the delta away. Overlay reads with no freezes in between are the
	// no-freeze hot path working as intended.
	PendingAdds      int   `json:"pending_adds"`
	PendingRemoves   int   `json:"pending_removes"`
	OverlayReads     int64 `json:"overlay_reads"`
	PassThroughReads int64 `json:"pass_through_reads"`
	Compactions      int64 `json:"compactions"`
	// Compaction and freeze cost visibility: cumulative and most-recent
	// compaction wall time, how many delta edges compactions merged
	// away, the configured watermark (-1 = disabled) with the remaining
	// headroom before it (-1 when disabled, 0 when overdue), and the
	// graph-side CSR build timings (all builds, not only compactions).
	CompactionSeconds     float64     `json:"compaction_seconds"`
	LastCompactionSeconds float64     `json:"last_compaction_seconds"`
	CompactionMergedEdges int64       `json:"compaction_merged_edges"`
	CompactWatermark      int         `json:"compact_watermark"`
	CompactHeadroom       int         `json:"compact_headroom"`
	FreezeBuildSeconds    float64     `json:"freeze_build_seconds"`
	LastFreezeSeconds     float64     `json:"last_freeze_seconds"`
	Tables                cache.Stats `json:"tables"`
	Results               cache.Stats `json:"results"`
}

// table kinds, part of tableKey so the three tiers share one cache.
const (
	tableCo   uint8 = iota // baseline product co-reachability bitset
	tableGoal              // subword/DAG backward-BFS dist + successors
	tableSeq               // summary per-sequence position-NFA bitset
)

// tableKey names one per-target pruning table: the graph generation it
// was built under, the language, the target, the snapshot partition it
// was built from (reconfiguring the shard count must not alias an old
// table, and a shared cache may serve engines with different
// partitions), and — for the summary tier — the Ψtr sequence index.
type tableKey struct {
	epoch  uint64
	lang   uint64
	y      int32
	seq    int32 // sequence index (summary tier), -1 otherwise
	shards uint16
	kind   uint8
}

// resultKey names one cached answer. Existence-only answers are cached
// under their own keys so a witness-less result can never be returned
// to a caller that asked for a path.
type resultKey struct {
	epoch  uint64
	lang   uint64
	x, y   int32
	exists bool
}

// coTable is an immutable product co-reachability table (a bitset over
// dense product ids), the frozen form of what coReach / computeCoReach
// leave in per-query scratch. Safe for concurrent readers.
type coTable struct {
	bits []uint64
}

func newCoTable(n int) *coTable { return &coTable{bits: make([]uint64, (n+63)>>6)} }

func (t *coTable) set(i int)      { t.bits[i>>6] |= 1 << (uint(i) & 63) }
func (t *coTable) has(i int) bool { return t.bits[i>>6]>>(uint(i)&63)&1 == 1 }
func (t *coTable) cost() int64    { return coTableCost(len(t.bits) << 6) }

// coTableCost is the byte footprint of a coTable over n dense ids,
// computable before the table is built (see cache.Retainable).
func coTableCost(n int) int64 { return int64((n+63)>>6)*8 + 48 }

// goalTableCost is the byte footprint of a goalTable over n dense ids.
func goalTableCost(n int) int64 { return int64(n)*9 + 72 }

// goalTable is the frozen result of one backward product BFS toward an
// accepting (y, ·) goal: distances (-1 = unreachable), successor links
// one step closer to the goal, and the labels of those steps. It
// answers existence in O(1) and yields a shortest walk from any source
// in O(walk length). Safe for concurrent readers.
type goalTable struct {
	dist   []int32
	parent []int32
	plabel []byte
}

func (t *goalTable) cost() int64 { return goalTableCost(len(t.dist)) }

// exportGoalTable freezes the arena's distToGoal output.
func exportGoalTable(p *product, a *arena) *goalTable {
	nm := p.n * p.m
	t := &goalTable{
		dist:   make([]int32, nm),
		parent: make([]int32, nm),
		plabel: make([]byte, nm),
	}
	for i := 0; i < nm; i++ {
		if a.dst.has(i) {
			t.dist[i] = a.dist[i]
			t.parent[i] = a.parent[i]
			t.plabel[i] = a.plabel[i]
		} else {
			t.dist[i] = -1
		}
	}
	return t
}

// exportCoTable freezes the arena's coReach output.
func exportCoTable(p *product, a *arena) *coTable {
	nm := p.n * p.m
	t := newCoTable(nm)
	for i := 0; i < nm; i++ {
		if a.co.has(i) {
			t.set(i)
		}
	}
	return t
}

// walkFrom reads a shortest L-labeled walk from x off the frozen
// successor links — the cached-table analogue of sharedWalkFrom — or
// nil when no walk exists. m is the DFA state count, start its start
// state.
func (t *goalTable) walkFrom(x, start, m int) *graph.Path {
	cur := x*m + start
	if t.dist[cur] < 0 {
		return nil
	}
	vs := make([]int, 0, t.dist[cur]+1)
	ls := make([]byte, 0, t.dist[cur])
	vs = append(vs, x)
	for t.dist[cur] > 0 {
		ls = append(ls, t.plabel[cur])
		cur = int(t.parent[cur])
		vs = append(vs, cur/m)
	}
	return &graph.Path{Vertices: vs, Labels: ls}
}

// engineSnap is one consistent pinned view of the graph: the snapshot
// view (base CSR plus any pending-delta overlay, carrying its partition
// when sharding is configured), the epoch it was pinned under, and the
// dispatch verdict. Snapshots are immutable; a mutation makes the next
// query pin a fresh one — WITHOUT freezing, when the delta is small
// enough for an overlay (graph.View), so mutations never stall reads on
// a refreeze and never invalidate in-flight queries (which keep their
// own snap).
type engineSnap struct {
	vw    *graph.View
	epoch uint64
	algo  Algorithm
}

// shards returns the partition size for cache keys (0 = unsharded).
func (s *engineSnap) shards() uint16 {
	return uint16(s.vw.Partition().NumShards())
}

// Engine is a long-lived serving engine for one (language, graph)
// pair: it answers Solve / Exists / BatchSolve / BatchSolveExists
// against a frozen snapshot of the graph, keeping the per-target
// pruning tables of all three algorithm tiers and hot query results in
// epoch-keyed LRU caches so they survive across queries and batches.
// Build one with NewEngine and share it between goroutines.
type Engine struct {
	s *Solver
	g *graph.Graph

	mu   sync.Mutex // serializes snapshot rebuilds
	snap atomic.Pointer[engineSnap]

	tables  *cache.Cache[tableKey, any] // nil when the tier is disabled
	results *cache.Cache[resultKey, Result]

	workers atomic.Int32

	// met holds every engine counter/histogram as pre-registered
	// series on one metrics.Registry (enginemetrics.go); EngineStats
	// and the Prometheus exposition both read it, so /stats and
	// /metrics can never disagree.
	met *engineMetrics

	// tuner learns α/β direction-switch thresholds from observed round
	// costs (tuner.go); every product search the engine runs reports
	// into it and reads its thresholds back at search start.
	tuner *dirTuner

	// compactDelta is the NeedsCompaction watermark resolved from
	// EngineConfig.CompactDelta (-1 = disabled).
	compactDelta int

	// adaptive records that NewEngine chose the shard count itself
	// (EngineConfig.Shards == 0 on an unconfigured graph); set once at
	// construction, read by Stats.
	adaptive bool

	// checkpoint is EngineConfig.Checkpoint (nil = no durability).
	checkpoint func()
}

// NewEngine builds a serving engine for s's language on g, freezing
// the graph-side indexes eagerly (like Solver.Warm). The zero
// EngineConfig selects the default cache budgets and a GOMAXPROCS
// worker pool.
func NewEngine(s *Solver, g *graph.Graph, cfg EngineConfig) *Engine {
	e := &Engine{s: s, g: g}
	if cfg.Shards > 0 {
		g.SetShards(cfg.Shards)
	} else if cfg.Shards == 0 && g.ShardCount() == 0 {
		if k := adaptiveShards(g.NumEdges(), runtime.GOMAXPROCS(0)); k > 1 {
			g.SetShards(k)
			e.adaptive = true
		}
	}
	if cfg.TableBytes >= 0 {
		tb := cfg.TableBytes
		if tb == 0 {
			tb = DefaultTableBytes
		}
		e.tables = cache.New[tableKey, any](cache.Config{MaxBytes: tb})
	}
	if cfg.ResultBytes >= 0 {
		rb := cfg.ResultBytes
		if rb == 0 {
			rb = DefaultResultBytes
		}
		e.results = cache.New[resultKey, Result](cache.Config{MaxBytes: rb})
	}
	w := cfg.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	e.workers.Store(int32(w))
	switch {
	case cfg.CompactDelta > 0:
		e.compactDelta = cfg.CompactDelta
	case cfg.CompactDelta == 0:
		e.compactDelta = DefaultCompactDelta
	default:
		e.compactDelta = -1
	}
	e.checkpoint = cfg.Checkpoint
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	e.met = newEngineMetrics(reg)
	e.met.registerSourced(e)
	e.tuner = newDirTuner(reg)
	e.snapshot()
	return e
}

// Metrics returns the registry carrying every engine series (the
// backing store of both Stats and the Prometheus exposition).
func (e *Engine) Metrics() *metrics.Registry { return e.met.reg }

// SetWorkers overrides the batch worker-pool size; n < 1 restores the
// default (GOMAXPROCS). It returns the receiver for chaining.
func (e *Engine) SetWorkers(n int) *Engine {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers.Store(int32(n))
	return e
}

// Solver returns the compiled language the engine serves.
func (e *Engine) Solver() *Solver { return e.s }

// ShardsAdaptive reports whether the engine picked the snapshot
// partition size itself (EngineConfig.Shards == 0 on an unconfigured
// graph) rather than serving a caller-chosen one.
func (e *Engine) ShardsAdaptive() bool { return e.adaptive }

// snapshot returns the current consistent pinned view, rebuilding it
// when the graph's epoch has moved past the snapshot's. Cached tables
// and results need no purging — their keys carry the old epoch and
// simply stop matching.
//
// This is the no-freeze read path of streaming workloads: the rebuild
// goes through graph.SnapshotView, which pins a small pending delta as
// a sorted read overlay on the last frozen base (graph.View) instead of
// refreezing. Mutations therefore cost O(1) at mutation time and
// roughly O(delta) at the next snapshot — never a stop-the-world
// re-sort — and in-flight queries are untouched: they hold their own
// snap, which stays valid because views are immutable. Merging the
// delta back into a flat CSR is deferred to Compact (a background
// concern, see NeedsCompaction) or to a natural freeze when the delta
// outgrows the overlay regime. EngineStats.OverlayReads versus
// .PassThroughReads shows which regime queries are actually in.
func (e *Engine) snapshot() *engineSnap {
	if s := e.snap.Load(); s != nil && s.epoch == e.g.Epoch() {
		return s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.snap.Load(); s != nil && s.epoch == e.g.Epoch() {
		return s
	}
	vw, acyclic, epoch := e.g.SnapshotView()
	s := &engineSnap{vw: vw, epoch: epoch, algo: e.s.algorithmFor(acyclic)}
	e.snap.Store(s)
	e.met.rebuilds.Inc()
	return s
}

// Compact merges the graph's pending mutation delta into a flat CSR and
// re-pins the engine's snapshot over the merged base, off the query
// path. The epoch does not move — an overlay view and the merged CSR
// present identical adjacency, so cached tables and results keyed by
// the current epoch stay valid and in-flight queries keep their pinned
// (now superseded, still immutable) view. It reports whether any
// compaction work was done.
//
// Like mutations, Compact must be externally synchronized with writers:
// callers serialize it against AddEdge/RemoveEdge (rspqd runs it from
// the compaction goroutine under the same write lock as mutations).
// Concurrent queries need no synchronization.
func (e *Engine) Compact() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	adds, removes := e.g.PendingDelta()
	if adds+removes == 0 {
		return false
	}
	t0 := time.Now()
	e.g.Freeze() // merge the delta into the base (incremental when it qualifies)
	vw, acyclic, epoch := e.g.SnapshotView()
	e.snap.Store(&engineSnap{vw: vw, epoch: epoch, algo: e.s.algorithmFor(acyclic)})
	el := time.Since(t0)
	e.met.compactions.Inc()
	e.met.compactSeconds.ObserveDuration(el)
	e.met.lastCompaction.Set(el.Seconds())
	e.met.compactMerged.Add(int64(adds + removes))
	if e.checkpoint != nil {
		// The merged CSR is the natural checkpoint image: publish it
		// while still under the caller's write exclusion, so the
		// snapshot and the WAL rotation see a quiesced graph.
		e.checkpoint()
	}
	return true
}

// compactHeadroom is the remaining pending-delta budget before the
// compaction watermark (floored at 0), or -1 when the watermark is
// disabled.
func (e *Engine) compactHeadroom() int {
	if e.compactDelta < 0 {
		return -1
	}
	adds, removes := e.g.PendingDelta()
	if h := e.compactDelta - (adds + removes); h > 0 {
		return h
	}
	return 0
}

// NeedsCompaction reports whether the pending delta has crossed the
// configured watermark (EngineConfig.CompactDelta), i.e. whether a
// background Compact is worth scheduling. Reads the live delta size, so
// call it under the same reader-side synchronization as queries.
func (e *Engine) NeedsCompaction() bool {
	if e.compactDelta < 0 {
		return false
	}
	adds, removes := e.g.PendingDelta()
	return adds+removes > e.compactDelta
}

// solveTiming is the engine-side sink a traced query threads through
// solveOne and its table helpers: the kernel trace the product kernels
// fill, plus the table/kernel stage split and the table-cache verdict.
// It is nil on every untraced path (the stage histograms are observed
// directly against e.met there).
type solveTiming struct {
	kt       *kernelTrace
	tableNs  int64
	kernelNs int64
	tableHit bool
}

// product builds the product view of a snapshot, carrying the partition
// and the engine's kernel telemetry (and, when tracing, the per-query
// trace sink) into the kernels.
func (e *Engine) product(snap *engineSnap, a *arena, st *solveTiming) product {
	p := makeProductView(snap.vw, e.s.Min, a)
	p.counts = &e.met.kernel
	p.tun = e.tuner
	if st != nil {
		p.tr = st.kt
	}
	return p
}

// Stats snapshots the engine's counters, including hit/miss/eviction
// numbers for both cache tiers. Every value is read from the same
// registry series the Prometheus exposition serves.
func (e *Engine) Stats() EngineStats {
	snap := e.snap.Load()
	m := e.met
	var queries int64
	for a := 0; a < algoCount; a++ {
		queries += m.queries[a].Value()
	}
	st := EngineStats{
		Queries:          queries,
		Batches:          m.batches.Value(),
		BatchPairs:       m.batchPairs.Value(),
		SnapshotRebuilds: m.rebuilds.Value(),
	}
	st.FullFreezes, st.IncrementalFreezes = e.g.FreezeStats()
	st.PendingAdds, st.PendingRemoves = e.g.PendingDelta()
	st.OverlayReads = m.overlayReads.Value()
	st.PassThroughReads = m.passThroughReads.Value()
	st.Compactions = m.compactions.Value()
	st.CompactionSeconds = m.compactSeconds.Sum()
	st.LastCompactionSeconds = m.lastCompaction.Value()
	st.CompactionMergedEdges = m.compactMerged.Value()
	st.CompactWatermark = e.compactDelta
	st.CompactHeadroom = e.compactHeadroom()
	freezeTotal, freezeLast := e.g.FreezeTimings()
	st.FreezeBuildSeconds = float64(freezeTotal) / 1e9
	st.LastFreezeSeconds = float64(freezeLast) / 1e9
	st.TopDownRounds = m.kernel.topDown.Value()
	st.BottomUpRounds = m.kernel.bottomUp.Value()
	st.DirectionSwitches = m.kernel.switches.Value()
	st.BitParallelHits = m.kernel.bitHits.Value()
	st.ExchangeRounds = st.TopDownRounds + st.BottomUpRounds
	st.DirAlpha = e.tuner.alphaGauge.Value()
	st.DirBeta = e.tuner.betaGauge.Value()
	st.TunerAdjustments = e.tuner.adjustments.Value()
	if snap != nil {
		st.Epoch = snap.epoch
		st.Algorithm = snap.algo.String()
		if pt := snap.vw.Partition(); pt.NumShards() > 0 {
			st.Shards = pt.NumShards()
			st.ShardsAdaptive = e.adaptive
			st.ShardEdges = make([]int, pt.NumShards())
			for s := range st.ShardEdges {
				st.ShardEdges[s] = snap.vw.OutDegreeRange(pt.Bounds(s))
			}
		}
	}
	if e.tables != nil {
		st.Tables = e.tables.Stats()
	}
	if e.results != nil {
		st.Results = e.results.Stats()
	}
	return st
}

// Solve answers RSPQ(L) for one (x, y) pair. The returned Result may
// be shared with other callers via the result cache, so its Path must
// be treated as immutable.
func (e *Engine) Solve(x, y int) Result {
	return e.solve(x, y, false)
}

// Exists answers only the existence bit, skipping witness
// materialization where the tier allows it (O(1) per call on the
// walk-reduction tiers once the target's table is cached).
func (e *Engine) Exists(x, y int) bool {
	return e.solve(x, y, true).Found
}

// SolveTraced answers like Solve and additionally returns the query's
// per-stage, per-round breakdown — which tier ran, whether the
// snapshot was an overlay, the result/table cache verdicts, the four
// stage timings, and every kernel round with its direction, frontier
// size and wall time. Tracing allocates (the recording itself), so it
// is for slow-query debugging, not the steady-state hot path; the
// returned trace is never nil.
func (e *Engine) SolveTraced(x, y int) (Result, *QueryTrace) {
	return e.run(x, y, false, true)
}

func (e *Engine) solve(x, y int, existsOnly bool) Result {
	res, _ := e.run(x, y, existsOnly, false)
	return res
}

// run is the shared single-query path: stage-timed, per-tier counted,
// optionally traced. The stage boundaries: "pin" covers snapshot
// validation + re-pin, "cache" the result-cache lookup, "table" the
// pruning-table cache traffic (lookup, export, insert), "kernel" the
// backward product BFS / summary sweep / finite-tier search itself.
func (e *Engine) run(x, y int, existsOnly, traced bool) (Result, *QueryTrace) {
	m := e.met
	t0 := time.Now()
	snap := e.snapshot()
	pin := time.Since(t0)
	m.queries[snap.algo].Inc()
	m.stagePin.ObserveDuration(pin)
	overlay := snap.vw.Overlay()
	if overlay {
		m.overlayReads.Inc()
	} else {
		m.passThroughReads.Inc()
	}
	var st *solveTiming
	if traced {
		st = &solveTiming{kt: &kernelTrace{}}
	}
	finish := func(res Result, cacheNs int64, cacheHit bool) (Result, *QueryTrace) {
		total := time.Since(t0)
		m.latency[snap.algo].ObserveDuration(total)
		if !traced {
			return res, nil
		}
		tr := &QueryTrace{
			X:              x,
			Y:              y,
			Tier:           snap.algo.String(),
			Epoch:          snap.epoch,
			Overlay:        overlay,
			ResultCacheHit: cacheHit,
			TotalNanos:     total.Nanoseconds(),
			Stages: []StageTiming{
				{Stage: "pin", Nanos: pin.Nanoseconds()},
				{Stage: "cache", Nanos: cacheNs},
				{Stage: "table", Nanos: st.tableNs},
				{Stage: "kernel", Nanos: st.kernelNs},
			},
		}
		tr.TableCacheHit = st.tableHit
		tr.BitParallel = st.kt.bitParallel
		tr.TopDownRounds = st.kt.td
		tr.BottomUpRounds = st.kt.bu
		tr.DirectionSwitches = st.kt.sw
		tr.DirAlpha = st.kt.alpha
		tr.DirBeta = st.kt.beta
		tr.Tuned = st.kt.tuned
		tr.Rounds = st.kt.rounds
		return res, tr
	}
	if !validPair(snap.vw.NumVertices(), x, y) {
		return finish(Result{}, 0, false)
	}
	c0 := time.Now()
	res, ok := e.cachedResult(snap.epoch, x, y, existsOnly)
	cacheDur := time.Since(c0)
	m.stageCache.ObserveDuration(cacheDur)
	if ok {
		return finish(res, cacheDur.Nanoseconds(), true)
	}
	a := getArena()
	res = e.solveOne(snap, a, x, y, existsOnly, st)
	a.release()
	e.storeResult(snap.epoch, x, y, existsOnly, res)
	return finish(res, cacheDur.Nanoseconds(), false)
}

// observeKernel / observeTable credit one stage interval to the stage
// histogram and, when tracing, the per-query sink.
func (e *Engine) observeKernel(d time.Duration, st *solveTiming) {
	e.met.stageKernel.ObserveDuration(d)
	if st != nil {
		st.kernelNs += d.Nanoseconds()
	}
}

func (e *Engine) observeTable(d time.Duration, st *solveTiming) {
	e.met.stageTable.ObserveDuration(d)
	if st != nil {
		st.tableNs += d.Nanoseconds()
	}
}

// cachedResult consults the result cache. A full result satisfies an
// existence-only ask; the reverse never happens because existence-only
// answers live under their own keys.
func (e *Engine) cachedResult(epoch uint64, x, y int, existsOnly bool) (Result, bool) {
	if e.results == nil {
		return Result{}, false
	}
	k := resultKey{epoch: epoch, lang: e.s.id, x: int32(x), y: int32(y)}
	if res, ok := e.results.Get(k); ok {
		return res, true
	}
	if existsOnly {
		k.exists = true
		if res, ok := e.results.Get(k); ok {
			return res, true
		}
	}
	return Result{}, false
}

func (e *Engine) storeResult(epoch uint64, x, y int, existsOnly bool, res Result) {
	if e.results == nil {
		return
	}
	k := resultKey{epoch: epoch, lang: e.s.id, x: int32(x), y: int32(y), exists: existsOnly}
	e.results.Put(k, res, resultCost(res))
}

// resultCost estimates the footprint of one cached Result: key, entry
// bookkeeping, and the witness path when present.
func resultCost(res Result) int64 {
	c := int64(96)
	if res.Path != nil {
		c += int64(len(res.Path.Vertices))*8 + int64(len(res.Path.Labels)) + 48
	}
	return c
}

// solveOne answers one in-range query against the snapshot, going
// through the table cache for the y-side pruning table of the active
// tier. st is the trace sink, nil when untraced (the stage histograms
// are observed either way).
func (e *Engine) solveOne(snap *engineSnap, a *arena, x, y int, existsOnly bool, st *solveTiming) Result {
	switch snap.algo {
	case AlgoFinite:
		// No y-side table to share: each word probe is a bounded DFS,
		// timed wholesale as the kernel stage.
		words := e.s.words
		if words == nil {
			words = finiteWords(e.s.Min)
		}
		k0 := time.Now()
		res := finiteWithWords(snap.vw, words, x, y)
		e.observeKernel(time.Since(k0), st)
		return res
	case AlgoSubword, AlgoDAG:
		if existsOnly {
			return e.existsGoal(snap, a, x, y, st)
		}
		v := e.goalViewFor(snap, a, y, st)
		return e.answerGoal(v, snap.algo, x, existsOnly)
	case AlgoSummary:
		return e.summarySolve(snap, x, y, existsOnly, st)
	default:
		p := e.product(snap, a, st)
		t := e.coTableFor(snap, &p, a, y, st)
		k0 := time.Now()
		res := baselineWith(&p, a, e.s.Min, t, x, y, nil)
		e.observeKernel(time.Since(k0), st)
		return res
	}
}

// summarySolve walks the Ψtr sequences in order, reusing each
// sequence's cached position-NFA co-reachability table when present.
// The skeleton search itself (ss.run) counts as kernel time.
func (e *Engine) summarySolve(snap *engineSnap, x, y int, existsOnly bool, st *solveTiming) Result {
	for si, seq := range e.s.Expr.Seqs {
		ss := e.acquireSummary(snap, seq, si, y, st)
		ss.existsOnly = existsOnly
		k0 := time.Now()
		res := ss.run(x)
		e.observeKernel(time.Since(k0), st)
		ss.release()
		if res.Found {
			return res
		}
	}
	return Result{}
}

// acquireSummary readies a summary searcher for (sequence si, target
// y), feeding its co-reachability table from — and back to — the table
// cache. Both the single-query and the batch path go through here. On
// a table miss the co-reachability sweep runs inside the acquire and
// is timed as kernel; the cache traffic around it is timed as table.
func (e *Engine) acquireSummary(snap *engineSnap, seq *psitr.Sequence, si, y int, st *solveTiming) *seqSearcher {
	key := tableKey{epoch: snap.epoch, lang: e.s.id, y: int32(y), seq: int32(si), shards: snap.shards(), kind: tableSeq}
	t0 := time.Now()
	var ext *coTable
	if e.tables != nil {
		if v, ok := e.tables.Get(key); ok {
			ext = v.(*coTable)
		}
	}
	e.observeTable(time.Since(t0), st)
	if ext != nil && st != nil {
		st.tableHit = true
	}
	var kt *kernelTrace
	if st != nil {
		kt = st.kt
	}
	k0 := time.Now()
	ss := acquireSeqSearcherView(snap.vw, seq, y, false, ext, &e.met.kernel, kt)
	if ext == nil {
		e.observeKernel(time.Since(k0), st)
		if e.tables != nil && e.tables.Retainable(coTableCost(ss.n*ss.plan.posCount)) {
			t1 := time.Now()
			t := ss.exportCoReach()
			e.tables.Put(key, t, t.cost())
			e.observeTable(time.Since(t1), st)
		}
	}
	return ss
}

// goalView is the y-side backward-BFS table in whichever form is
// cheapest: a cached immutable goalTable, or — when the table cache is
// disabled or the table would be rejected on arrival — the arena's raw
// distToGoal output, read exactly like the BatchSolver path with no
// export copy.
type goalView struct {
	t *goalTable
	p product // valid when t == nil; arena holds the BFS output
	a *arena
}

// goalViewFor returns the backward-BFS view for target y, serving the
// cached table on hit and caching a freshly exported one on miss when
// it is retainable. The BFS is timed as kernel, the cache traffic as
// table.
func (e *Engine) goalViewFor(snap *engineSnap, a *arena, y int, st *solveTiming) goalView {
	key := tableKey{epoch: snap.epoch, lang: e.s.id, y: int32(y), seq: -1, shards: snap.shards(), kind: tableGoal}
	t0 := time.Now()
	if e.tables != nil {
		if v, ok := e.tables.Get(key); ok {
			e.observeTable(time.Since(t0), st)
			if st != nil {
				st.tableHit = true
			}
			return goalView{t: v.(*goalTable)}
		}
	}
	p := e.product(snap, a, st)
	k0 := time.Now()
	p.distToGoal(y, a)
	e.observeKernel(time.Since(k0), st)
	t1 := time.Now()
	if e.tables != nil && e.tables.Retainable(goalTableCost(p.n*p.m)) {
		t := exportGoalTable(&p, a)
		e.tables.Put(key, t, t.cost())
		e.observeTable(time.Since(t1), st)
		return goalView{t: t}
	}
	e.observeTable(time.Since(t1), st)
	return goalView{p: p, a: a}
}

// answerGoal answers one source against the y-side view, applying the
// subword loop-removal guard when the tier requires it. Shared by the
// single-query and batch paths.
func (e *Engine) answerGoal(v goalView, algo Algorithm, x int, existsOnly bool) Result {
	m, start := e.s.Min.NumStates, e.s.Min.Start
	if existsOnly {
		// Sound without the walk: on DAGs every walk is simple, and the
		// dispatcher verified subword closure, under which loop removal
		// always lands back in the language.
		if v.t != nil {
			return Result{Found: v.t.dist[x*m+start] >= 0}
		}
		return Result{Found: v.a.dst.has(v.p.id(x, start))}
	}
	var walk *graph.Path
	if v.t != nil {
		walk = v.t.walkFrom(x, start, m)
	} else {
		walk = v.p.sharedWalkFrom(v.a, x)
	}
	if walk == nil {
		return Result{}
	}
	if algo == AlgoSubword {
		simple := walk.RemoveLoops()
		if !e.s.Min.Member(simple.Word()) {
			// Cannot happen for genuinely subword-closed languages.
			return Result{}
		}
		return Result{Found: true, Path: simple}
	}
	return Result{Found: true, Path: walk}
}

// cachedGoalTable returns target y's cached backward-BFS table, nil on
// miss (without computing one).
func (e *Engine) cachedGoalTable(snap *engineSnap, y int) *goalTable {
	if e.tables == nil {
		return nil
	}
	key := tableKey{epoch: snap.epoch, lang: e.s.id, y: int32(y), seq: -1, shards: snap.shards(), kind: tableGoal}
	if v, ok := e.tables.Get(key); ok {
		return v.(*goalTable)
	}
	return nil
}

// existsGoal answers one existence-only query on the walk-reduction
// tiers. Existence needs no successor links — (x, start) reaches the
// goal iff it is co-reachable — so on a goal-table miss the answer
// comes from the mark-only coReach sweep (bit-parallel when the DFA
// packs into a word, bitbfs.go) instead of the heavier link-recording
// distToGoal, and feeds the baseline tier's co table cache. A cached
// goal table (left by earlier witness queries on the same target) still
// answers in O(1).
func (e *Engine) existsGoal(snap *engineSnap, a *arena, x, y int, st *solveTiming) Result {
	m, start := e.s.Min.NumStates, e.s.Min.Start
	t0 := time.Now()
	t := e.cachedGoalTable(snap, y)
	e.observeTable(time.Since(t0), st)
	if t != nil {
		if st != nil {
			st.tableHit = true
		}
		return Result{Found: t.dist[x*m+start] >= 0}
	}
	p := e.product(snap, a, st)
	if t := e.coTableFor(snap, &p, a, y, st); t != nil {
		return Result{Found: t.has(x*m + start)}
	}
	return Result{Found: a.co.has(p.id(x, start))}
}

// coTableFor returns the baseline co-reachability table for target y —
// cached on hit, freshly cached on miss when retainable, or nil with
// the table left in the arena (a.co) for baselineWith's fallback. The
// sweep is timed as kernel, the cache traffic as table.
func (e *Engine) coTableFor(snap *engineSnap, p *product, a *arena, y int, st *solveTiming) *coTable {
	key := tableKey{epoch: snap.epoch, lang: e.s.id, y: int32(y), seq: -1, shards: snap.shards(), kind: tableCo}
	t0 := time.Now()
	if e.tables != nil {
		if v, ok := e.tables.Get(key); ok {
			e.observeTable(time.Since(t0), st)
			if st != nil {
				st.tableHit = true
			}
			return v.(*coTable)
		}
	}
	k0 := time.Now()
	p.coReach(y, a)
	e.observeKernel(time.Since(k0), st)
	t1 := time.Now()
	if e.tables != nil && e.tables.Retainable(coTableCost(p.n*p.m)) {
		t := exportCoTable(p, a)
		e.tables.Put(key, t, t.cost())
		e.observeTable(time.Since(t1), st)
		return t
	}
	e.observeTable(time.Since(t1), st)
	return nil
}

// BatchSolve answers many (x, y) pairs: out[i] answers pairs[i],
// out-of-range ids yield Result{Found: false}. Pairs are first checked
// against the result cache; the remainder are grouped by target, each
// group's pruning table comes from the table cache (computed once on
// miss), and groups fan out over the worker pool. Cached Results are
// shared — treat their Paths as immutable.
func (e *Engine) BatchSolve(pairs []Pair) []Result {
	out := make([]Result, len(pairs))
	e.batch(pairs, out, nil)
	return out
}

// BatchSolveExists answers only the existence bits, combining the
// batch grouping with the existence-only fast path (O(1) per source on
// the walk-reduction tiers once the group's table is available).
func (e *Engine) BatchSolveExists(pairs []Pair) []bool {
	found := make([]bool, len(pairs))
	e.batch(pairs, nil, found)
	return found
}

func (e *Engine) batch(pairs []Pair, out []Result, found []bool) {
	e.met.batches.Inc()
	e.met.batchPairs.Add(int64(len(pairs)))
	t0 := time.Now()
	snap := e.snapshot()
	e.met.stagePin.ObserveDuration(time.Since(t0))
	if snap.vw.Overlay() {
		e.met.overlayReads.Inc()
	} else {
		e.met.passThroughReads.Inc()
	}
	n := snap.vw.NumVertices()
	existsOnly := found != nil

	var groups []batchGroup
	pos := make(map[int]int)
	for i, pq := range pairs {
		if !validPair(n, pq.X, pq.Y) {
			continue // slot stays Found=false
		}
		if res, ok := e.cachedResult(snap.epoch, pq.X, pq.Y, existsOnly); ok {
			if existsOnly {
				found[i] = res.Found
			} else {
				out[i] = res
			}
			continue
		}
		gi, ok := pos[pq.Y]
		if !ok {
			gi = len(groups)
			pos[pq.Y] = gi
			groups = append(groups, batchGroup{y: pq.Y})
		}
		groups[gi].xs = append(groups[gi].xs, pq.X)
		groups[gi].idx = append(groups[gi].idx, i)
	}
	if len(groups) == 0 {
		return
	}

	workers := int(e.workers.Load())
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		a := getArena()
		for gi := range groups {
			e.solveGroup(snap, a, &groups[gi], out, found)
		}
		a.release()
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := getArena()
			defer a.release()
			for gi := range work {
				e.solveGroup(snap, a, &groups[gi], out, found)
			}
		}()
	}
	for gi := range groups {
		work <- gi
	}
	close(work)
	wg.Wait()
}

// solveGroup answers one target group against the cached (or freshly
// cached) y-side table, writing into the disjoint slots named by
// grp.idx and feeding each answer to the result cache.
func (e *Engine) solveGroup(snap *engineSnap, a *arena, grp *batchGroup, out []Result, found []bool) {
	existsOnly := found != nil
	record := func(j int, res Result) {
		if existsOnly {
			found[grp.idx[j]] = res.Found
		} else {
			out[grp.idx[j]] = res
		}
		e.storeResult(snap.epoch, grp.xs[j], grp.y, existsOnly, res)
	}
	switch snap.algo {
	case AlgoFinite:
		words := e.s.words
		if words == nil {
			words = finiteWords(e.s.Min)
		}
		for j, x := range grp.xs {
			record(j, finiteWithWords(snap.vw, words, x, grp.y))
		}
	case AlgoSubword, AlgoDAG:
		if existsOnly {
			// One mark-only sweep (bit-parallel when applicable) serves
			// every source of the group; see existsGoal.
			m, start := e.s.Min.NumStates, e.s.Min.Start
			if t := e.cachedGoalTable(snap, grp.y); t != nil {
				for j, x := range grp.xs {
					record(j, Result{Found: t.dist[x*m+start] >= 0})
				}
				return
			}
			p := e.product(snap, a, nil)
			t := e.coTableFor(snap, &p, a, grp.y, nil)
			for j, x := range grp.xs {
				if t != nil {
					record(j, Result{Found: t.has(x*m + start)})
				} else {
					record(j, Result{Found: a.co.has(p.id(x, start))})
				}
			}
			return
		}
		v := e.goalViewFor(snap, a, grp.y, nil)
		for j, x := range grp.xs {
			record(j, e.answerGoal(v, snap.algo, x, existsOnly))
		}
	case AlgoSummary:
		e.batchSummary(snap, grp, out, found)
	default:
		p := e.product(snap, a, nil)
		t := e.coTableFor(snap, &p, a, grp.y, nil)
		for j, x := range grp.xs {
			record(j, baselineWith(&p, a, e.s.Min, t, x, grp.y, nil))
		}
	}
}

// batchSummary mirrors BatchSolver.batchSummary with the per-sequence
// tables drawn from (and fed to) the cross-query cache.
func (e *Engine) batchSummary(snap *engineSnap, grp *batchGroup, out []Result, found []bool) {
	existsOnly := found != nil
	answered := make([]bool, len(grp.xs))
	results := make([]Result, len(grp.xs))
	remaining := len(grp.xs)
	for si, seq := range e.s.Expr.Seqs {
		if remaining == 0 {
			break
		}
		ss := e.acquireSummary(snap, seq, si, grp.y, nil)
		ss.existsOnly = existsOnly
		for j, x := range grp.xs {
			if answered[j] {
				continue
			}
			if res := ss.run(x); res.Found {
				answered[j] = true
				results[j] = res
				remaining--
			}
		}
		ss.release()
	}
	for j := range grp.xs {
		res := results[j]
		if existsOnly {
			found[grp.idx[j]] = res.Found
		} else {
			out[grp.idx[j]] = res
		}
		e.storeResult(snap.epoch, grp.xs[j], grp.y, existsOnly, res)
	}
}
