package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rspq"
)

// The cold-batch graph: dense, so every target's backward product
// search touches most of the 1M edges.
const (
	coldPattern  = "a*b*a*b*a*b*a*b*a*b*" // 11-state subword-closed language
	coldVertices = 12500
	coldOutDeg   = 80
	batchSize    = 64
	// oracleBatches is how many of the first batches keep their answers
	// for the cross-check against the in-process solver.
	oracleBatches = 4
)

// batchPairs is batch i: batchSize distinct sources and one target,
// the i-th of a seeded permutation of the vertices, so no target
// repeats within a run.
func batchPairs(seed int64, targets []int, i int64) []pair {
	y := targets[int(i)%len(targets)]
	r := rand.New(rand.NewSource(seed*7919 + i))
	seen := map[int]bool{y: true}
	ps := make([]pair, 0, batchSize)
	for len(ps) < batchSize {
		x := r.Intn(len(targets))
		if !seen[x] {
			seen[x] = true
			ps = append(ps, pair{x, y})
		}
	}
	return ps
}

func batchBody(ps []pair, existsOnly bool) []byte {
	b := []byte(`{"pairs":[`)
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPair(b, p)
	}
	b = append(b, `],"exists_only":`...)
	return append(strconv.AppendBool(b, existsOnly), '}')
}

// batchReply is rspqd's /batch answer: results for witness batches,
// found bits for existence-only ones.
type batchReply struct {
	Results []queryReply `json:"results"`
	Found   []bool       `json:"found"`
}

func runColdBatch(r *run) error {
	g := randomGraph(r.seed, coldVertices, coldOutDeg, "ab")
	path := filepath.Join(r.work, "graph.txt")
	if err := g.writeText(path); err != nil {
		return err
	}
	chk, err := newChecker(coldPattern, g.keys())
	if err != nil {
		return err
	}
	targets := rand.New(rand.NewSource(r.seed + 2)).Perm(g.n)
	args := []string{"-graph", path, "-pattern", coldPattern}
	srv, setup, err := r.bootServers(args, func() error { return nil })
	if err != nil {
		return err
	}
	defer srv.kill()
	r.rep.endToEnd("setup_s", "s", setup)

	conns := make([]*conn, r.clients)
	for c := range conns {
		conns[c] = srv.conn()
	}
	var (
		next   atomic.Int64
		keepMu sync.Mutex
		kept   = make(map[int64][]bool) // batch → found bits, for the oracle
	)
	step := func(c int, t *tally, tr bool) {
		i := next.Add(1) - 1
		ps := batchPairs(r.seed, targets, i)
		existsOnly := i%2 == 1
		var rep batchReply
		t.attempted++
		start := time.Now()
		err := conns[c].post("/batch", batchBody(ps, existsOnly), &rep)
		end := time.Now()
		if err != nil {
			r.fail.note(t, err)
			return
		}
		t.reads.observe(end.Sub(start))
		t.pairs += batchSize
		if tr {
			r.tr.record("http.batch", 0, start, end)
		}
		found := rep.Found
		if !existsOnly {
			found = make([]bool, len(rep.Results))
			for j := range rep.Results {
				found[j] = rep.Results[j].Found
				if err := rep.Results[j].verify(chk, ps[j]); err != nil {
					r.fail.note(t, err)
					return
				}
			}
		}
		if len(found) != len(ps) {
			r.fail.note(t, fmt.Errorf("batch %d: %d answers for %d pairs", i, len(found), len(ps)))
			return
		}
		if i < oracleBatches {
			keepMu.Lock()
			kept[i] = found
			keepMu.Unlock()
		}
	}
	d, w, err := r.driveScraped(srv.scrape, repeat(step, 2), step)
	if err != nil {
		return err
	}
	r.readMetrics(w, batchSize)
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
		r.httpLayers(w, d, "batch", true)
		r.lifetimeLayers(fin)
	}
	srv.kill()

	// The first pairs of the first batches, witness and existence-only
	// alike, against the in-process solver.
	var sample []pair
	var got []bool
	for i := int64(0); i < oracleBatches; i++ {
		ps := batchPairs(r.seed, targets, i)
		if kept[i] == nil {
			r.check(fmt.Errorf("batch %d: no checked answers to cross-check", i))
			continue
		}
		for j := 0; j < oracleSample/oracleBatches; j++ {
			sample = append(sample, ps[j])
			got = append(got, kept[i][j])
		}
	}
	if err := r.oracle(coldPattern, buildGraph(g.n, g.edges), sample, got); err != nil {
		return err
	}

	if r.trace {
		root := r.tr.start("replay", 0)
		defer root.end()
		eng, err := r.replayEngine(root.s.ID, path, coldPattern)
		if err != nil {
			return err
		}
		for i := int64(0); i < oracleBatches; i++ {
			ps := batchPairs(r.seed, targets, oracleBatches+i)
			pairs := make([]rspq.Pair, len(ps))
			for j, p := range ps {
				pairs[j] = rspq.Pair{X: p.x, Y: p.y}
			}
			if i%2 == 0 {
				sp := r.tr.start("rspq.Engine.BatchSolve", root.s.ID)
				eng.BatchSolve(pairs)
				sp.end()
			} else {
				sp := r.tr.start("rspq.Engine.BatchSolveExists", root.s.ID)
				eng.BatchSolveExists(pairs)
				sp.end()
			}
		}
		r.rep.layer("rspq.engine.batch_solve_ms", "ms", r.tr.meanMs("rspq.Engine.BatchSolve"))
		r.rep.layer("rspq.engine.batch_solve_exists_ms", "ms", r.tr.meanMs("rspq.Engine.BatchSolveExists"))
		r.spanLayers()
	}
	return nil
}
