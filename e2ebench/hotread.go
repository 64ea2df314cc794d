package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/automaton"
)

// The hot-read graph and pair mix, shared by hot-read and embedded-hot.
const (
	hotPattern  = "a*(bb+|())c*" // summary tier (Ψtr), not subword-closed
	hotVertices = 100000
	hotOutDeg   = 3
	poolTargets = 64
	poolPerTgt  = 64
	zipfS       = 1.1
)

// zipfInputs generates a sparse out-degree-3 graph of n vertices with
// labels drawn uniformly from labels, writes it for rspqd, and draws
// the pair pool the Zipf clients query (hot-read, embedded-hot,
// stream-write).
func (r *run) zipfInputs(n int, labels, pattern string) (*genGraph, string, []pair, *checker, error) {
	g := randomGraph(r.seed, n, hotOutDeg, labels)
	path := filepath.Join(r.work, "graph.txt")
	if err := g.writeText(path); err != nil {
		return nil, "", nil, nil, err
	}
	dfa, err := automaton.MinDFAFromPattern(pattern)
	if err != nil {
		return nil, "", nil, nil, err
	}
	pool := pairPool(r.seed+1, g, dfa, poolTargets, poolPerTgt)
	chk, err := newChecker(pattern, g.keys())
	return g, path, pool, chk, err
}

// queryReply is rspqd's /query answer.
type queryReply struct {
	Found bool `json:"found"`
	Path  *struct {
		Vertices []int  `json:"vertices"`
		Word     string `json:"word"`
	} `json:"path"`
}

// verify checks one reply's witness; a found reply must carry one.
func (q *queryReply) verify(chk *checker, p pair) error {
	if !q.Found {
		return nil
	}
	if q.Path == nil {
		return fmt.Errorf("(%d,%d): found without a witness", p.x, p.y)
	}
	return chk.witness(p.x, p.y, q.Path.Vertices, q.Path.Word)
}

// appendPair appends p as a /query body.
func appendPair(b []byte, p pair) []byte {
	b = append(b, `{"x":`...)
	b = strconv.AppendInt(b, int64(p.x), 10)
	b = append(b, `,"y":`...)
	b = strconv.AppendInt(b, int64(p.y), 10)
	return append(b, '}')
}

// queryStep returns a closed-loop /query step over the Zipf mix, and
// the warm-up that asks every pool pair once, so the window starts with
// every answer cached.
func (r *run) queryStep(srv *server, pool []pair, chk *checker, ans answers) (stepFunc, warmFunc) {
	streams := make([]*idxStream, r.clients)
	bufs := make([][]byte, r.clients)
	conns := make([]*conn, r.clients)
	for c := range streams {
		streams[c] = newIdxStream(clientSeed(r.seed, "query", c), zipfS, len(pool))
		conns[c] = srv.conn()
	}
	query := func(c int, t *tally, tr bool, i int) {
		p := pool[i]
		bufs[c] = appendPair(bufs[c][:0], p)
		var rep queryReply
		t.attempted++
		start := time.Now()
		err := conns[c].post("/query", bufs[c], &rep)
		end := time.Now()
		if err != nil {
			r.fail.note(t, err)
			return
		}
		t.reads.observe(end.Sub(start))
		t.pairs++
		if tr {
			r.tr.record("http.query", 0, start, end)
		}
		if err := rep.verify(chk, p); err != nil {
			r.fail.note(t, err)
		} else if ans != nil {
			if err := ans.note(i, rep.Found); err != nil {
				r.fail.note(t, err)
			}
		}
	}
	step := func(c int, t *tally, tr bool) { query(c, t, tr, streams[c].next()) }
	warm := func(c int, t *tally) {
		for i := c; i < len(pool); i += r.clients {
			query(c, t, false, i)
		}
	}
	return step, warm
}

// oracleSample is how many of the most frequent pool pairs each run
// cross-checks against the in-process solver.
const oracleSample = 24

func runHotRead(r *run) error {
	g, path, pool, chk, err := r.zipfInputs(hotVertices, "abc", hotPattern)
	if err != nil {
		return err
	}
	args := []string{"-graph", path, "-pattern", hotPattern}
	srv, setup, err := r.bootServers(args, func() error { return nil })
	if err != nil {
		return err
	}
	defer srv.kill()
	r.rep.endToEnd("setup_s", "s", setup)

	ans := make(answers, len(pool))
	step, warm := r.queryStep(srv, pool, chk, ans)
	d, w, err := r.driveScraped(srv.scrape, warm, step)
	if err != nil {
		return err
	}
	r.readMetrics(w, 1)
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return err
	}
	r.rep.endToEnd("peak_rss_mb", "MiB", rss)

	if r.trace {
		fin, err := srv.scrape()
		if err != nil {
			return err
		}
		r.httpLayers(w, d, "query", false)
		r.lifetimeLayers(fin)
	}
	srv.kill()

	if err := r.oracleHottest(hotPattern, g, pool, ans); err != nil {
		return err
	}
	if r.trace {
		return r.replayBoot(path, hotPattern)
	}
	return nil
}

// oracleHottest cross-checks the found bits the window saw for the
// hottest pool pairs, all of which it answered, against the in-process
// solver.
func (r *run) oracleHottest(pattern string, g *genGraph, pool []pair, ans answers) error {
	var sample []pair
	var got []bool
	for _, i := range hottest(r.seed, len(pool)) {
		if v := ans[i].Load(); v != 0 {
			sample = append(sample, pool[i])
			got = append(got, v == ansFound)
		}
	}
	return r.oracle(pattern, buildGraph(g.n, g.edges), sample, got)
}

// replayBoot runs the boot replay under its own root span and reports
// its span layers.
func (r *run) replayBoot(path, pattern string) error {
	root := r.tr.start("replay", 0)
	_, err := r.replayEngine(root.s.ID, path, pattern)
	root.end()
	if err == nil {
		r.spanLayers()
	}
	return err
}

// hottest lists the pool indices of the oracle sample: the most
// frequent ranks of the clients' Zipf streams.
func hottest(seed int64, poolSize int) []int {
	seen := make(map[int]bool)
	var out []int
	st := newIdxStream(clientSeed(seed, "query", 0), zipfS, poolSize)
	for _, i := range st.idx {
		if !seen[int(i)] {
			seen[int(i)] = true
			out = append(out, int(i))
		}
		if len(out) == oracleSample {
			break
		}
	}
	return out
}

// driveScraped runs the window, scraping the engine host's metrics
// around every traced slice; it returns the summed changes over the
// traced slices.
func (r *run) driveScraped(scrape func() (expo, error), warm warmFunc, step stepFunc) (expo, *window, error) {
	d := make(expo)
	var before expo
	edge := func(begin bool) error {
		e, err := scrape()
		if err != nil {
			return err
		}
		if begin {
			before = e
		} else {
			d.add(e.sub(before))
		}
		return nil
	}
	w, err := drive(r.clients, warm, r.seconds, r.trace, step, edge)
	if err != nil {
		return nil, nil, err
	}
	r.count(w)
	return d, w, nil
}

// httpLayers reports the transport split of the read endpoint ep and
// the engine split below it. For /query the engine's own per-query
// timer gives engine time; /batch has no whole-request engine timer,
// so there engine time is the sum of the stage timers.
func (r *run) httpLayers(w *window, d expo, ep string, batch bool) {
	reads := d.sum("rspqd_http_request_seconds_count", "endpoint", ep)
	handlerUs := d.mean("rspqd_http_request_seconds", "endpoint", ep) * 1e6
	engineUs := d.sum("rspq_query_seconds_sum") / reads * 1e6
	if batch {
		engineUs = d.sum("rspq_stage_seconds_sum") / reads * 1e6
	}
	clientUs := w.phase[traced].reads.meanUs()
	r.rep.layer("rspqd."+ep+".handler_us", "us", handlerUs)
	r.rep.layer("rspqd."+ep+".client_overhead_us", "us", clientUs-handlerUs)
	r.rep.layer("rspqd."+ep+".outside_engine_us", "us", handlerUs-engineUs)
	if !batch {
		r.rep.layer("rspq.engine.query_us", "us", engineUs)
	}
	r.windowLayers(w, d, reads, engineUs)
}
