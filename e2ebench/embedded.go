package main

import (
	"bytes"
	"os"
	"runtime"
	"time"

	trichotomy "repro"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// runEmbedded drives the public library Engine in process on the
// hot-read graph and pair mix: the same cache-hit path as hot-read
// with the transport taken away.
func runEmbedded(r *run) error {
	g, path, pool, chk, err := r.zipfInputs(hotVertices, "abc", hotPattern)
	if err != nil {
		return err
	}
	var (
		eng   *trichotomy.Engine
		reg   *metrics.Registry
		times []float64
	)
	for i := 0; i < r.setupFor; i++ {
		eng = nil
		ig := buildGraph(g.n, g.edges)
		runtime.GC()
		reg = metrics.NewRegistry()
		t0 := time.Now()
		lang, err := trichotomy.Compile(hotPattern)
		if err != nil {
			return err
		}
		eng = lang.NewEngine(ig, trichotomy.EngineConfig{Metrics: reg})
		times = append(times, time.Since(t0).Seconds())
	}
	r.rep.endToEnd("setup_s", "s", median(times))

	scrape := func() (expo, error) {
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			return nil, err
		}
		return parseExposition(&b)
	}
	ans := make(answers, len(pool))
	streams := make([]*idxStream, r.clients)
	verified := make([][]*graph.Path, r.clients)
	tracers := make([]*tracer, r.clients)
	for c := range streams {
		streams[c] = newIdxStream(clientSeed(r.seed, "query", c), zipfS, len(pool))
		verified[c] = make([]*graph.Path, len(pool))
		tracers[c] = r.tr.child(c)
	}
	solve := func(c int, t *tally, tr bool, i int) {
		p := pool[i]
		t.attempted++
		start := time.Now()
		res := eng.Solve(p.x, p.y)
		end := time.Now()
		t.reads.observe(end.Sub(start))
		t.pairs++
		if tr {
			tracers[c].record("rspq.Engine.Solve", 0, start, end)
		}
		// Hits share one cached Result, so a witness needs checking
		// only when its pointer changes.
		if res.Found && res.Path != verified[c][i] {
			if err := chk.witness(p.x, p.y, res.Path.Vertices, res.Path.Word()); err != nil {
				r.fail.note(t, err)
				return
			}
			verified[c][i] = res.Path
		}
		if err := ans.note(i, res.Found); err != nil {
			r.fail.note(t, err)
		}
	}
	step := func(c int, t *tally, tr bool) { solve(c, t, tr, streams[c].next()) }
	warm := func(c int, t *tally) {
		for i := c; i < len(pool); i += r.clients {
			solve(c, t, false, i)
		}
	}
	d, w, err := r.driveScraped(scrape, warm, step)
	if err != nil {
		return err
	}
	for _, t := range tracers {
		r.tr.merge(t)
	}
	r.readMetrics(w, 1)
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	r.rep.endToEnd("peak_rss_mb", "MiB", rss)

	if r.trace {
		fin, err := scrape()
		if err != nil {
			return err
		}
		r.rep.layer("rspq.engine.solve_ns", "ns", r.tr.meanMs("rspq.Engine.Solve")*1e6)
		reads := d.sum("rspq_query_seconds_count")
		r.windowLayers(w, d, reads, d.sum("rspq_query_seconds_sum")/reads*1e6)
		r.lifetimeLayers(fin)
	}

	eng = nil // let the engine go before the oracle builds its own graph
	if err := r.oracleHottest(hotPattern, g, pool, ans); err != nil {
		return err
	}
	if r.trace {
		return r.replayBoot(path, hotPattern)
	}
	return nil
}
