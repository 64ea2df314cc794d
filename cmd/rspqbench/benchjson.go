package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/rspq"
)

// This file implements the machine-readable benchmark mode:
//
//	rspqbench -benchjson auto                 # writes BENCH_<git rev>.json
//	rspqbench -benchjson out.json             # explicit path
//	rspqbench -benchjson out.json -workloads shard   # one group only
//
// Each workload is run through testing.Benchmark so the numbers are
// directly comparable with `go test -bench`; the JSON gives future
// revisions a perf trajectory (ns/op, allocs/op, B/op per workload).
// Workloads are organized into lazily-built groups ("core", "shard"),
// so -workloads <group> runs one group without paying the fixture
// construction of the others — CI uses `-workloads shard` as the
// sharded-engine smoke test.

type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// Engine-backed workloads also record tail latency, read off the
	// engine's rspq_query_seconds histogram after the run: ns/op is a
	// mean and hides the tail the serving path actually exhibits.
	P50Ns float64 `json:"p50_ns,omitempty"`
	P95Ns float64 `json:"p95_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
}

// benchQuantiles maps workload name → percentile reader. Builders
// register their engine-backed workloads here (the only ones with a
// latency histogram to read); runBenchJSON consults it after each run
// to attach p50/p95/p99 to the record.
var benchQuantiles = map[string]func() (p50, p95, p99 float64){}

// engineQuantiles reads the three serving percentiles, in seconds,
// from eng's per-query latency histogram (all tiers merged).
func engineQuantiles(eng *rspq.Engine) func() (p50, p95, p99 float64) {
	return func() (p50, p95, p99 float64) {
		reg := eng.Metrics()
		return reg.HistogramQuantile("rspq_query_seconds", 0.50),
			reg.HistogramQuantile("rspq_query_seconds", 0.95),
			reg.HistogramQuantile("rspq_query_seconds", 0.99)
	}
}

type benchReport struct {
	Rev       string        `json:"rev"`
	Date      string        `json:"date"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Workloads []benchRecord `json:"workloads"`
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

// workload is one named benchmark of the JSON suite.
type workload struct {
	name string
	fn   func(b *testing.B)
}

// workloadGroup is a lazily-built set of workloads: build runs only
// when the group is selected, so heavyweight fixtures (the 1M-edge
// shard graphs) cost nothing when filtered out.
type workloadGroup struct {
	name  string
	build func() []workload
}

func workloadGroups() []workloadGroup {
	return []workloadGroup{
		{"core", coreWorkloads},
		{"shard", shardWorkloads},
		{"flood", floodWorkloads},
		{"dist", distWorkloads},
		{"overlay", overlayWorkloads},
		{"snap", snapWorkloads},
	}
}

// snapWorkloads measures the durability boot paths on a 1M-edge graph:
// snap-load is a full warm boot off a checkpointed data dir (mmap the
// snapshot, adopt the CSR, answer the first query), wal-replay is the
// same boot with a 10k-op un-checkpointed WAL tail to replay, and
// cold-rebuild is what a boot without a snapshot pays — regenerate the
// graph and freeze it before the first answer. The acceptance bar of
// the persistence layer is snap-load beating cold-rebuild to the first
// query by ≥5×.
func snapWorkloads() []workload {
	s := mustSolver("ab|ba|aab")
	buildGraph := func() *graph.Graph {
		g, _ := graph.StreamingWorkload(1_000_000, 0, 91)
		g.Freeze()
		return g
	}
	g := buildGraph()
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(13))
	qx, qy := rng.Intn(n), rng.Intn(n)
	mustOpen := func(opts persist.Options) (*persist.DB, *graph.Graph) {
		db, bg, err := persist.Open(opts)
		if err != nil {
			panic(err)
		}
		return db, bg
	}
	checkpointedDir := func(tail int) string {
		dir, err := os.MkdirTemp("", "rspqbench-snap")
		if err != nil {
			panic(err)
		}
		db, bg := mustOpen(persist.Options{Dir: dir, Bootstrap: func() (*graph.Graph, error) { return buildGraph(), nil }})
		// Leave `tail` effective single-op batches in the WAL,
		// un-checkpointed, for the replay row.
		trng := rand.New(rand.NewSource(37))
		for logged := 0; logged < tail; {
			from, to := trng.Intn(n), trng.Intn(n)
			if bg.HasEdge(from, 'a', to) {
				continue
			}
			ops := []persist.Op{{Kind: persist.OpAddEdge, From: from, Label: 'a', To: to}}
			if _, err := db.LogBatch(ops); err != nil {
				panic(err)
			}
			if _, err := persist.ApplyOps(bg, ops); err != nil {
				panic(err)
			}
			logged++
		}
		if err := db.Close(); err != nil {
			panic(err)
		}
		return dir
	}
	noBootstrap := func() (*graph.Graph, error) {
		return nil, fmt.Errorf("snap workload expected a warm boot")
	}
	warmBoot := func(dir string) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db, bg := mustOpen(persist.Options{Dir: dir, Bootstrap: noBootstrap})
				s.Solve(bg, qx, qy)
				if err := db.Close(); err != nil {
					panic(err)
				}
			}
		}
	}
	dirSnap := checkpointedDir(0)
	dirTail := checkpointedDir(10_000)
	return []workload{
		{"snap-load/m=1M", warmBoot(dirSnap)},
		{"wal-replay/m=1M-tail=10k", warmBoot(dirTail)},
		{"cold-rebuild/m=1M", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cg := buildGraph()
				s.Solve(cg, qx, qy)
			}
		}},
	}
}

// overlayWorkloads measures the MVCC-lite serving shape on a 1M-edge
// graph across pending-delta sizes (0%, 0.1%, 1%, 5% of the edges):
// each iteration applies one mutation epoch (untimed) and then answers
// a burst of finite-tier point queries. The overlay-read row times only
// what the query path pays — pinning a graph.View over the delta and
// reading through it — with the delta merge deferred to an untimed
// Freeze after the burst, exactly like rspqd's background compaction.
// The refreeze-read row is the pre-View serving discipline: the first
// query after a mutation pays a stop-the-world Freeze before anything
// is answered. The acceptance bar of the refactor is overlay-read
// beating refreeze-read by ≥3× at the 1% point.
func overlayWorkloads() []workload {
	s := mustSolver("ab|ba|aab") // finite tier: cheap bounded word probes
	var ws []workload
	for _, f := range []struct {
		name  string
		ratio float64
	}{
		{"0pct", 0}, {"0.1pct", 0.001}, {"1pct", 0.01}, {"5pct", 0.05},
	} {
		g, muts := graph.StreamingWorkload(1_000_000, f.ratio, 42)
		g.Freeze()
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(3))
		pairs := make([]rspq.Pair, 16)
		for i := range pairs {
			pairs[i] = rspq.Pair{X: rng.Intn(n), Y: rng.Intn(n)}
		}
		g2, muts2 := graph.StreamingWorkload(1_000_000, f.ratio, 42)
		g2.Freeze()
		ws = append(ws,
			workload{"overlay-read/m=1M-delta=" + f.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					graph.FlipEdges(g, muts) // mutation epoch: untimed
					b.StartTimer()
					for _, pq := range pairs { // pin the overlay view + answer
						s.Solve(g, pq.X, pq.Y)
					}
					b.StopTimer()
					// Flipping the same set back cancels the delta exactly
					// (tombstone/re-add pairs annihilate), restoring the
					// pristine base without a Freeze: iterations stay
					// garbage-light and the timed window above is purely
					// the overlay read path.
					graph.FlipEdges(g, muts)
					b.StartTimer()
				}
			}},
			workload{"refreeze-read/m=1M-delta=" + f.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					graph.FlipEdges(g2, muts2)
					b.StartTimer()
					g2.Freeze() // stop-the-world merge on the query path
					for _, pq := range pairs {
						s.Solve(g2, pq.X, pq.Y)
					}
				}
			}},
		)
	}
	return ws
}

// floodWorkloads measures the direction-optimizing, bit-parallel
// coReach kernels on their target shape: existence-only batches whose
// backward BFS floods most of the product of a DENSE random graph
// (6k vertices, 720k edges, average degree 120 — past the bottom-up
// density gate) under the 3-state subword-closed language a*(b|c)*.
// Each K runs twice — once on the optimized kernels (auto direction
// switching + packed ≤64-state words) and once pinned to the top-down
// generic kernels that the pre-optimization revisions used — so the
// recorded JSON carries the speedup itself, not just an absolute
// number. K=1 short-circuits the exchange, making the K=1 pair a
// single-core kernel-vs-kernel comparison.
func floodWorkloads() []workload {
	const floodN, floodM = 6_000, 720_000
	rg := rand.New(rand.NewSource(23))
	labels := []byte{'a', 'b', 'c'}
	g := graph.New(floodN)
	for g.NumEdges() < floodM {
		g.AddEdge(rg.Intn(floodN), labels[rg.Intn(len(labels))], rg.Intn(floodN))
	}
	s := mustSolver("a*(b|c)*")
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(29))
	pairs := make([]rspq.Pair, 0, 4*64)
	for t := 0; t < 4; t++ {
		y := rng.Intn(n)
		for i := 0; i < 64; i++ {
			pairs = append(pairs, rspq.Pair{X: rng.Intn(n), Y: y})
		}
	}
	run := func(k int, topDown bool) func(b *testing.B) {
		return func(b *testing.B) {
			if topDown {
				rspq.SetDirectionMode(rspq.DirTopDown)
				rspq.SetBitParallel(false)
				defer func() {
					rspq.SetDirectionMode(rspq.DirAuto)
					rspq.SetBitParallel(true)
				}()
			}
			g.SetShards(k)
			s.Warm(g)
			bs := rspq.NewBatchSolver(s, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs.SolveExists(pairs)
			}
		}
	}
	var ws []workload
	for _, k := range []int{1, 8} {
		ws = append(ws,
			workload{fmt.Sprintf("flood-exists/K=%d", k), run(k, false)},
			workload{fmt.Sprintf("flood-exists-topdown/K=%d", k), run(k, true)},
		)
	}
	return ws
}

// distWorkloads measures the bit-parallel DISTANCE kernels
// (distbits.go) on their target shape: shortest-walk floods — full
// batch Solve, so every group pays distToGoal plus witness-walk
// reconstruction — over a dense 1M-edge random graph (12.5k vertices,
// average degree 80, past the bottom-up density gate) under the
// 11-state subword-closed language a*b*a*b*a*b*a*b*a*b*. The width is
// the point: the generic kernel walks m product rows per edge while
// the packed sweep tests all m states in one word, so a
// representative mid-width automaton (still far under the 64-state
// packing bound) is where the distance kernels must earn their keep.
// Like the flood group, each K runs twice: once on the packed
// witness-log kernels and once pinned to the top-down generic
// distToGoal the pre-optimization revisions used, so the JSON carries
// the speedup itself. K=1 short-circuits the exchange, making the K=1
// pair the single-core kernel-vs-kernel comparison behind the ≥2×
// acceptance bar.
func distWorkloads() []workload {
	const distN, distM = 12_500, 1_000_000
	rg := rand.New(rand.NewSource(31))
	labels := []byte{'a', 'b'}
	g := graph.New(distN)
	for g.NumEdges() < distM {
		g.AddEdge(rg.Intn(distN), labels[rg.Intn(len(labels))], rg.Intn(distN))
	}
	s := mustSolver("a*b*a*b*a*b*a*b*a*b*")
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(37))
	pairs := make([]rspq.Pair, 0, 2*64)
	for t := 0; t < 2; t++ {
		y := rng.Intn(n)
		for i := 0; i < 64; i++ {
			pairs = append(pairs, rspq.Pair{X: rng.Intn(n), Y: y})
		}
	}
	run := func(k int, generic bool) func(b *testing.B) {
		return func(b *testing.B) {
			if generic {
				rspq.SetDirectionMode(rspq.DirTopDown)
				rspq.SetBitParallel(false)
				defer func() {
					rspq.SetDirectionMode(rspq.DirAuto)
					rspq.SetBitParallel(true)
				}()
			}
			g.SetShards(k)
			s.Warm(g)
			bs := rspq.NewBatchSolver(s, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs.Solve(pairs)
			}
		}
	}
	var ws []workload
	for _, k := range []int{1, 8} {
		ws = append(ws,
			workload{fmt.Sprintf("flood-dist/K=%d", k), run(k, false)},
			workload{fmt.Sprintf("flood-dist-generic/K=%d", k), run(k, true)},
		)
	}
	return ws
}

// shardWorkloads compares the frontier-exchange product BFS across
// partition sizes K=1/4/16 on a ≥1M-edge generated graph, through the
// batch engine on a grouped existence workload (2 hot targets × 32
// sources of the flooding language (a|b|c)*, i.e. plain reachability
// on the subword tier — the shape where each group's backward BFS
// dominates and per-target batching alone yields no parallelism).
func shardWorkloads() []workload {
	g, _ := graph.StreamingWorkload(1_000_000, 0, 91)
	s := mustSolver("(a|b|c)*")
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(17))
	pairs := make([]rspq.Pair, 0, 64)
	for t := 0; t < 2; t++ {
		y := rng.Intn(n)
		for i := 0; i < 32; i++ {
			pairs = append(pairs, rspq.Pair{X: rng.Intn(n), Y: y})
		}
	}
	var ws []workload
	for _, k := range []int{1, 4, 16} {
		ws = append(ws, workload{fmt.Sprintf("shard-exists/m=1M-K=%d", k), func(b *testing.B) {
			g.SetShards(k)
			s.Warm(g)
			bs := rspq.NewBatchSolver(s, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs.SolveExists(pairs)
			}
		}})
	}
	ws = append(ws, workload{"shard-unsharded/m=1M", func(b *testing.B) {
		g.SetShards(0)
		s.Warm(g)
		bs := rspq.NewBatchSolver(s, g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs.SolveExists(pairs)
		}
	}})
	return ws
}

// coreWorkloads is the fixed suite snapshotted into the JSON: the
// product-search hot paths plus one workload per solver tier.
func coreWorkloads() []workload {
	mustDFA := func(pattern string) *automaton.DFA {
		d, err := automaton.MinDFAFromPattern(pattern)
		if err != nil {
			panic(err)
		}
		return d
	}
	walkDFA := mustDFA("a*b(a|b|c)*")
	walkG := graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 400)
	walkG.Freeze()
	walkDFA.Rev()

	summary := mustSolver("a*(bb+|())c*")
	summaryG := graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 400)
	summary.Warm(summaryG)

	subword := mustSolver("a*c*")
	subwordG := graph.RandomRegular(400, []byte{'a', 'b', 'c'}, 3, 12)
	subword.Warm(subwordG)

	finite := mustSolver("ab|ba|aab")
	finiteG := graph.Random(200, []byte{'a', 'b'}, 0.03, 7)
	finite.Warm(finiteG)

	hard := mustSolver("a*(bb+|())c*")
	fig4 := graph.NewFigure4(8)
	hard.Warm(fig4.G)

	// Grouped-by-target batch workloads: 8 targets × 32 sources, the
	// shape whose y-side tables the batch engine shares.
	batchPairs := func(n int, seed int64) []rspq.Pair {
		rng := rand.New(rand.NewSource(seed))
		pairs := make([]rspq.Pair, 0, 8*32)
		for t := 0; t < 8; t++ {
			y := rng.Intn(n)
			for s := 0; s < 32; s++ {
				pairs = append(pairs, rspq.Pair{X: rng.Intn(n), Y: y})
			}
		}
		return pairs
	}
	summaryBatch := rspq.NewBatchSolver(summary, summaryG)
	summaryPairs := batchPairs(400, 7)
	np := mustSolver("a*bba*")
	npG := graph.Random(400, []byte{'a', 'b'}, 0.006, 21)
	npBatch := rspq.NewBatchSolver(np, npG)
	npPairs := batchPairs(400, 7)

	// Serving-engine workloads: the same hot pair set through the
	// two-tier cache (warm), through the table cache alone, and through
	// the cold per-query path — the cross-batch caching win.
	hotPairs := func(n int, seed int64) []rspq.Pair {
		rng := rand.New(rand.NewSource(seed))
		pairs := make([]rspq.Pair, 0, 4*16)
		for t := 0; t < 4; t++ {
			y := rng.Intn(n)
			for s := 0; s < 16; s++ {
				pairs = append(pairs, rspq.Pair{X: rng.Intn(n), Y: y})
			}
		}
		return pairs
	}
	engPairs := hotPairs(400, 7)
	engWarm := rspq.NewEngine(summary, summaryG, rspq.EngineConfig{})
	engTables := rspq.NewEngine(summary, summaryG, rspq.EngineConfig{ResultBytes: -1})
	benchQuantiles["engine-hot-summary/64q-4t"] = engineQuantiles(engWarm)
	benchQuantiles["engine-tables-summary/64q-4t"] = engineQuantiles(engTables)
	subwordBatch := rspq.NewBatchSolver(subword, subwordG)
	subwordPairs := batchPairs(400, 7)

	// Mutate-heavy streaming workloads: a ~1% edge delta applied to a
	// frozen 100k-edge graph, refrozen through the incremental delta
	// merge vs the full build of a fresh graph holding the same edges
	// (~4.5–5× apart on a 2-core Xeon). The workload shape is shared
	// with BenchmarkFreeze (graph.StreamingWorkload), so the recorded
	// numbers and the benchmark cannot drift apart.
	freezeIncG, freezeMuts := graph.StreamingWorkload(100_000, 0.01, 42)
	freezeIncG.Freeze()
	freezeFullG, _ := graph.StreamingWorkload(100_000, 0.01, 42)

	return []workload{
		{"shortest-walk/n=400", func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < b.N; i++ {
				rspq.ShortestWalk(walkG, walkDFA, rng.Intn(400), rng.Intn(400))
			}
		}},
		{"exists-walk/n=400", func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < b.N; i++ {
				rspq.ExistsWalk(walkG, walkDFA, rng.Intn(400), rng.Intn(400))
			}
		}},
		{"summary/n=400", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				rspq.SolvePsitr(summaryG, summary.Expr, rng.Intn(400), rng.Intn(400), false)
			}
		}},
		{"summary-figure4/k=8", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rspq.SolvePsitr(fig4.G, hard.Expr, fig4.X0, fig4.Y2k, false)
			}
		}},
		{"baseline-figure4/k=8", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rspq.Baseline(fig4.G, hard.Min, fig4.X0, fig4.Y2k, nil)
			}
		}},
		{"subword-walk/n=400", func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < b.N; i++ {
				rspq.Subword(subwordG, subword.Min, rng.Intn(400), rng.Intn(400))
			}
		}},
		{"finite/n=200", func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < b.N; i++ {
				finite.Solve(finiteG, rng.Intn(200), rng.Intn(200))
			}
		}},
		{"batch-summary/256q-8t", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				summaryBatch.Solve(summaryPairs)
			}
		}},
		{"perquery-summary/256q-8t", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, pq := range summaryPairs {
					summary.Solve(summaryG, pq.X, pq.Y)
				}
			}
		}},
		{"batch-baseline/256q-8t", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				npBatch.Solve(npPairs)
			}
		}},
		{"perquery-baseline/256q-8t", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, pq := range npPairs {
					np.Solve(npG, pq.X, pq.Y)
				}
			}
		}},
		{"engine-hot-summary/64q-4t", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pq := engPairs[i%len(engPairs)]
				engWarm.Solve(pq.X, pq.Y)
			}
		}},
		{"engine-tables-summary/64q-4t", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pq := engPairs[i%len(engPairs)]
				engTables.Solve(pq.X, pq.Y)
			}
		}},
		{"engine-cold-summary/64q-4t", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pq := engPairs[i%len(engPairs)]
				summary.Solve(summaryG, pq.X, pq.Y)
			}
		}},
		{"batch-exists-subword/256q-8t", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				subwordBatch.SolveExists(subwordPairs)
			}
		}},
		{"batch-full-subword/256q-8t", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				subwordBatch.Solve(subwordPairs)
			}
		}},
		{"freeze-incremental/m=100k-1pct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				graph.FlipEdges(freezeIncG, freezeMuts)
				b.StartTimer()
				freezeIncG.Freeze()
			}
		}},
		{"freeze-full/m=100k-1pct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				graph.FlipEdges(freezeFullG, freezeMuts)
				fresh := graph.New(freezeFullG.NumVertices())
				for _, e := range freezeFullG.Edges() {
					fresh.AddEdge(e.From, e.Label, e.To)
				}
				b.StartTimer()
				fresh.Freeze()
			}
		}},
	}
}

func runBenchJSON(path, filter string) error {
	rev := gitRev()
	if path == "auto" {
		path = fmt.Sprintf("BENCH_%s.json", rev)
	}
	report := benchReport{
		Rev:       rev,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	ran := false
	for _, grp := range workloadGroups() {
		if filter != "" && !strings.Contains(grp.name, filter) {
			continue
		}
		ran = true
		for _, w := range grp.build() {
			r := testing.Benchmark(w.fn)
			rec := benchRecord{
				Name:        w.name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Iterations:  r.N,
			}
			if qf := benchQuantiles[w.name]; qf != nil {
				p50, p95, p99 := qf()
				rec.P50Ns, rec.P95Ns, rec.P99Ns = p50*1e9, p95*1e9, p99*1e9
			}
			fmt.Fprintf(os.Stderr, "%-24s %12.1f ns/op %8d B/op %6d allocs/op",
				rec.Name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp)
			if rec.P99Ns > 0 {
				fmt.Fprintf(os.Stderr, "  p50=%.0fns p95=%.0fns p99=%.0fns", rec.P50Ns, rec.P95Ns, rec.P99Ns)
			}
			fmt.Fprintln(os.Stderr)
			report.Workloads = append(report.Workloads, rec)
		}
	}
	if !ran {
		return fmt.Errorf("no workload group matches -workloads %q", filter)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
