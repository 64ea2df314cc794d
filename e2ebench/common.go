package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/rspq"
)

var nan = math.NaN()

// run is one benchmark invocation: a workload, a seed, a window.
type run struct {
	rspqd    string // rspqd binary
	work     string // scratch directory of this run
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	tr       *tracer
	fail     failures
	rep      report
	setupFor int // setup repetitions
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// report is what a workload measured. e2e holds the contract's
// end-to-end metrics, extra the end-to-end metrics only this workload
// has (printed, not gated), layers the traced run's per-layer metrics.
type report struct {
	e2e, extra, layers []metric
	attempted, failed  int64
	notes              []string
	fsync              string
}

func (r *report) endToEnd(name, unit string, v float64) {
	r.e2e = append(r.e2e, metric{name, unit, v})
}
func (r *report) only(name, unit string, v float64) {
	r.extra = append(r.extra, metric{name, unit, v})
}
func (r *report) layer(name, unit string, v float64) {
	r.layers = append(r.layers, metric{name, unit, v})
}

// count folds a window's operations into the run's attempted/failed.
func (r *run) count(w *window) {
	for _, t := range []*tally{&w.phase[untraced], &w.phase[traced], &w.warm} {
		r.rep.attempted += t.attempted
		r.rep.failed += t.failed
	}
}

// check counts one extra correctness check (oracle sample, durability)
// as an operation.
func (r *run) check(err error) {
	r.rep.attempted++
	if err != nil {
		r.fail.record(err)
		r.rep.failed++
	}
}

// readMetrics reports the read-side end-to-end metrics of the measured
// (untraced) slices: throughput and p50 as medians over the slices, so
// a second disturbed by something outside the benchmark moves them
// little, and p99 over the whole window, which holds well over the 1000
// reads a p99 needs to have ten beyond it.
func (r *run) readMetrics(w *window, pairsPerRead float64) {
	var rate, p50 []float64
	for _, sl := range w.slices {
		if !sl.traced {
			rate = append(rate, float64(sl.t.pairs)/sl.elapsed.Seconds())
			p50 = append(p50, sl.t.reads.quantileUs(0.50))
		}
	}
	t := &w.phase[untraced]
	r.rep.endToEnd("pairs_per_s", "pairs/s", median(rate))
	r.rep.endToEnd("query_p50_us", "us", median(p50))
	r.rep.endToEnd("query_p99_us", "us", t.reads.quantileUs(0.99))
	r.rep.notes = append(r.rep.notes, fmt.Sprintf("%d read requests measured in %d slices (%.0f pairs each), %d warm-up operations; per-slice pairs/s %.4g",
		t.reads.n, len(rate), pairsPerRead, w.warm.attempted, rate))
}

// bootServers starts rspqd setupFor times, each from a clean state
// prepared by fresh, and returns the last instance with the median
// time to first healthy reply.
func (r *run) bootServers(args []string, fresh func() error) (*server, float64, error) {
	var times []float64
	var srv *server
	for i := 0; i < r.setupFor; i++ {
		if srv != nil {
			srv.kill()
		}
		if err := fresh(); err != nil {
			return nil, 0, err
		}
		s, d, err := startServer(r.rspqd, args, filepath.Join(r.work, "rspqd.log"))
		if err != nil {
			return nil, 0, err
		}
		srv = s
		times = append(times, d.Seconds())
	}
	return srv, median(times), nil
}

// buildGraph turns generated edges into the in-process graph the
// oracle and the embedded engine query.
func buildGraph(n int, edges []edge) *graph.Graph {
	g := graph.New(n)
	for _, e := range edges {
		g.AddEdge(int(e.from), e.label, int(e.to))
	}
	return g
}

// solveAll answers pairs with an in-process rspq.Solver, the oracle
// the benchmark cross-checks found bits against.
func solveAll(pattern string, g *graph.Graph, pairs []pair) ([]bool, error) {
	s, err := rspq.NewSolver(pattern)
	if err != nil {
		return nil, err
	}
	s.Warm(g)
	out := make([]bool, len(pairs))
	for i, p := range pairs {
		out[i] = s.Solve(g, p.x, p.y).Found
	}
	return out, nil
}

// oracle cross-checks found bits against solveAll on the same edge
// set; each pair is one check.
func (r *run) oracle(pattern string, g *graph.Graph, pairs []pair, got []bool) error {
	want, err := solveAll(pattern, g, pairs)
	if err != nil {
		return err
	}
	for i, p := range pairs {
		if want[i] != got[i] {
			r.check(fmt.Errorf("oracle: (%d,%d) found=%v, in-process Solver says %v", p.x, p.y, got[i], want[i]))
		} else {
			r.check(nil)
		}
	}
	return nil
}

// replayEngine is the in-process replay of a traced run: it repeats
// the calls rspqd makes at boot — parse the graph file, compile the
// pattern, build the engine — timing each around the public function.
// Its spans are children of the span root.
func (r *run) replayEngine(root int64, path, pattern string) (*rspq.Engine, error) {
	g, err := r.tracedReadText(path, root)
	if err != nil {
		return nil, err
	}
	s, err := r.tracedSolver(pattern, root)
	if err != nil {
		return nil, err
	}
	sp := r.tr.start("rspq.NewEngine", root)
	e := rspq.NewEngine(s, g, rspq.EngineConfig{})
	sp.end()
	return e, nil
}

func (r *run) tracedReadText(path string, parent int64) (*graph.Graph, error) {
	sp := r.tr.start("graph.ReadText", parent)
	defer sp.end()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadText(f)
}

func (r *run) tracedSolver(pattern string, parent int64) (*rspq.Solver, error) {
	sp := r.tr.start("rspq.NewSolver", parent)
	defer sp.end()
	return rspq.NewSolver(pattern)
}

// spanLayers reports the in-process replay spans every workload has.
func (r *run) spanLayers() {
	r.rep.layer("graph.load_ms", "ms", r.tr.meanMs("graph.ReadText"))
	r.rep.layer("automaton.compile_ms", "ms", r.tr.meanMs("rspq.NewSolver"))
	r.rep.layer("rspq.engine.new_ms", "ms", r.tr.meanMs("rspq.NewEngine"))
}

// lifetimeLayers reports engine and kernel metrics over the engine's
// whole life (fin is a scrape taken at the end of the run): per-table
// kernel work and freeze cost are paid mostly before the window, and
// the cache sizes are what the run left resident.
func (r *run) lifetimeLayers(fin expo) {
	td := fin.sum("rspq_kernel_rounds_total", "dir", "top_down")
	bu := fin.sum("rspq_kernel_rounds_total", "dir", "bottom_up")
	misses := fin.sum("rspq_cache_misses_total", "cache", "tables")
	r.rep.layer("rspq.kernel.round_us", "us", fin.mean("rspq_kernel_round_seconds")*1e6)
	r.rep.layer("rspq.kernel.round_us.top_down", "us", fin.mean("rspq_kernel_round_seconds", "dir", "top_down")*1e6)
	r.rep.layer("rspq.kernel.round_us.bottom_up", "us", fin.mean("rspq_kernel_round_seconds", "dir", "bottom_up")*1e6)
	r.rep.layer("rspq.kernel.rounds_per_table", "count", ratio(td+bu, misses))
	r.rep.layer("rspq.kernel.bottom_up_share", "fraction", ratio(bu, td+bu))
	r.rep.layer("rspq.kernel.bit_parallel_share", "fraction", ratio(fin.sum("rspq_bit_parallel_hits_total"), misses))
	r.rep.layer("cache.results.bytes", "bytes", fin.sum("rspq_cache_bytes", "cache", "results"))
	r.rep.layer("cache.tables.bytes", "bytes", fin.sum("rspq_cache_bytes", "cache", "tables"))
	r.rep.layer("graph.freeze_ms", "ms", ratio(fin.sum("rspq_freeze_build_seconds_total"), fin.sum("rspq_freezes_total"))*1e3)
}

// windowLayers reports the engine-side split of the traced slices'
// read requests. d holds the server-side changes over those slices,
// reads the number of read requests they served and engineUs the
// engine time per read request; clientUs is the client-observed mean.
func (r *run) windowLayers(w *window, d expo, reads, engineUs float64) {
	tw := w.elapsed[traced].Seconds()
	clientUs := w.phase[traced].reads.meanUs()
	stage := func(s string) float64 { return d.sum("rspq_stage_seconds_sum", "stage", s) / reads * 1e6 }
	pin, cch, tbl, krn := stage("pin"), stage("cache"), stage("table"), stage("kernel")
	r.rep.layer("read.client_us", "us", clientUs)
	r.rep.layer("read.outside_engine_us", "us", clientUs-engineUs)
	r.rep.layer("rspq.engine.read_us", "us", engineUs)
	r.rep.layer("rspq.stage.pin_us", "us", pin)
	r.rep.layer("rspq.stage.cache_us", "us", cch)
	r.rep.layer("rspq.stage.table_us", "us", tbl)
	r.rep.layer("rspq.stage.kernel_us", "us", krn)
	r.rep.layer("rspq.engine.unattributed_us", "us", engineUs-pin-cch-tbl-krn)
	hit := func(c string) float64 {
		h := d.sum("rspq_cache_hits_total", "cache", c)
		return ratio(h, h+d.sum("rspq_cache_misses_total", "cache", c))
	}
	r.rep.layer("cache.results.hit_ratio", "fraction", hit("results"))
	r.rep.layer("cache.tables.hit_ratio", "fraction", hit("tables"))
	r.rep.layer("cache.tables.evictions_per_s", "1/s", d.sum("rspq_cache_evictions_total", "cache", "tables")/tw)
	ov := d.sum("rspq_reads_total", "view", "overlay")
	r.rep.layer("graph.overlay_read_share", "fraction", ratio(ov, d.sum("rspq_reads_total")))
	overhead := clientUs - w.phase[untraced].reads.meanUs()
	r.rep.layer("trace.overhead_us", "us", overhead)
	parts := clientUs - engineUs + pin + cch + tbl + krn
	r.rep.notes = append(r.rep.notes, fmt.Sprintf(
		"read breakdown: outside engine %.2f + pin %.2f + cache %.2f + table %.2f + kernel %.2f = %.2f us vs client mean %.2f us (gap %.2f us = engine time outside the stage timers; tracing overhead %.2f us)",
		clientUs-engineUs, pin, cch, tbl, krn, parts, clientUs, clientUs-parts, overhead))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return nan
	}
	return a / b
}
