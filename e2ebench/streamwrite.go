package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/rspq"
)

// The stream-write graph and write mix.
const (
	streamPattern  = "a*c*" // subword-closed
	streamVertices = 66667  // ×3 out-edges ≈ 200k edges
	// streamLabels draws b half the time, a and c a quarter each, so a
	// vertex has 0.75 a- and c-edges on average. With {a,b,c} uniform
	// each is 1, the critical point, where the size of the a*c*
	// co-reach — the table every read after a write rebuilds — swings
	// with the seed: one seed's graph ran 1.8× slower than another's,
	// run after run.
	streamLabels  = "abbc"
	readsPerWrite = 16
	writeHalf     = 32 // adds, and removes, per /edges batch
	// fifoBatches is how many batches an added edge lives before its
	// writer removes it. Adds and removes of one edge between two
	// compactions cancel in the pending delta, so the lag must exceed
	// the watermark's worth of batches for the delta to grow at all:
	// 2 writers × 64 batches × 32 edges = 4096.
	fifoBatches = 64
	fsyncPolicy = "batch"
	// replayBatches caps the writer batches replayed in process by the
	// traced run: enough to cross the 4096-edge compaction watermark a
	// few times.
	replayBatches = 256
)

// edgesReply is rspqd's /edges answer.
type edgesReply struct {
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Epoch   uint64 `json:"epoch"`
	Edges   int    `json:"edges"`
}

// writer is one client's write state: a FIFO of the edges it will
// remove, oldest first. Every batch adds writeHalf new edges at the
// back and removes writeHalf from the front, so the edge count stays
// level. The FIFO starts with fifoBatches×writeHalf base edges whose
// source has the writer's parity, so removals are real from the first
// batch on.
type writer struct {
	rng  *rand.Rand
	k    int
	fifo []edge
}

// ackedBatch is one acknowledged /edges batch, kept for the in-process
// replay.
type ackedBatch struct {
	epoch         uint64
	adds, removes []edge
}

// newEdges draws writeHalf edges the graph has never had. Client c
// only draws sources of parity c, so the clients' edges never collide.
func (w *writer) newEdges(c, n int, chk *checker) []edge {
	out := make([]edge, 0, writeHalf)
	for len(out) < writeHalf {
		from := 2*w.rng.Intn(n/2) + c
		to := w.rng.Intn(n)
		l := streamLabels[w.rng.Intn(len(streamLabels))]
		if to == from || chk.hasEdge(from, l, to) || slices.Contains(out, edge{int32(from), int32(to), l}) {
			continue
		}
		out = append(out, edge{int32(from), int32(to), l})
	}
	return out
}

// splitOwned hands each writer the base edges its FIFO starts with and
// returns the base edges no writer will ever remove.
func splitOwned(base []edge, writers []writer) []edge {
	var kept []edge
	for _, e := range base {
		c := int(e.from) % len(writers)
		if len(writers[c].fifo) < fifoBatches*writeHalf {
			writers[c].fifo = append(writers[c].fifo, e)
		} else {
			kept = append(kept, e)
		}
	}
	return kept
}

func edgesBody(adds, removes []edge) []byte {
	b := []byte(`{"add":[`)
	list := func(es []edge) {
		for i, e := range es {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"from":`...)
			b = strconv.AppendInt(b, int64(e.from), 10)
			b = append(b, `,"label":"`...)
			b = append(b, e.label)
			b = append(b, `","to":`...)
			b = strconv.AppendInt(b, int64(e.to), 10)
			b = append(b, '}')
		}
	}
	list(adds)
	b = append(b, `],"remove":[`...)
	list(removes)
	return append(b, "]}"...)
}

func runStreamWrite(r *run) error {
	g, path, pool, chk, err := r.zipfInputs(streamVertices, streamLabels, streamPattern)
	if err != nil {
		return err
	}
	r.rep.fsync = fsyncPolicy
	dataDir := filepath.Join(r.work, "data")
	args := []string{"-graph", path, "-pattern", streamPattern, "-data-dir", dataDir, "-fsync", fsyncPolicy}
	srv, setup, err := r.bootServers(args, func() error { return os.RemoveAll(dataDir) })
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	r.rep.endToEnd("setup_s", "s", setup)

	var (
		writers = make([]writer, r.clients)
		ackMu   sync.Mutex
		lastAck edgesReply
		acked   []ackedBatch
	)
	conns := make([]*conn, r.clients)
	for c := range writers {
		writers[c].rng = rand.New(rand.NewSource(clientSeed(r.seed, "edges", c)))
		conns[c] = srv.conn()
	}
	unowned := splitOwned(g.edges, writers)
	read, _ := r.queryStep(srv, pool, chk, nil)
	step := func(c int, t *tally, tr bool) {
		w := &writers[c]
		w.k++
		if w.k%(readsPerWrite+1) != 0 {
			read(c, t, tr)
			return
		}
		adds := w.newEdges(c, g.n, chk)
		chk.noteAdded(adds)
		removes := w.fifo[:writeHalf:writeHalf]
		var rep edgesReply
		t.attempted++
		start := time.Now()
		err := conns[c].post("/edges", edgesBody(adds, removes), &rep)
		end := time.Now()
		if err != nil {
			r.fail.note(t, err)
			return
		}
		t.writes.observe(end.Sub(start))
		t.edges += int64(rep.Added + rep.Removed)
		if tr {
			r.tr.record("http.edges", 0, start, end)
		}
		if rep.Added != len(adds) || rep.Removed != len(removes) {
			r.fail.note(t, fmt.Errorf("/edges acknowledged %d adds and %d removes of %d each", rep.Added, rep.Removed, writeHalf))
		}
		ackMu.Lock()
		if rep.Epoch > lastAck.Epoch {
			lastAck = rep
		}
		if len(acked) < replayBatches {
			acked = append(acked, ackedBatch{rep.Epoch, adds, removes})
		}
		ackMu.Unlock()
		w.fifo = append(w.fifo[writeHalf:], adds...)
	}
	d, win, err := r.driveScraped(srv.scrape, repeat(step, 4*(readsPerWrite+1)), step)
	if err != nil {
		return err
	}
	r.readMetrics(win, 1)
	t := &win.phase[untraced]
	r.rep.only("edges_per_s", "edges/s", float64(t.edges)/win.elapsed[untraced].Seconds())
	r.rep.only("write_p50_us", "us", t.writes.quantileUs(0.50))
	r.rep.only("write_p99_us", "us", t.writes.quantileUs(0.99))
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
		r.httpLayers(win, d, "query", false)
		writes := d.sum("rspqd_http_request_seconds_count", "endpoint", "edges")
		r.rep.layer("rspqd.edges.handler_us", "us", d.mean("rspqd_http_request_seconds", "endpoint", "edges")*1e6)
		r.rep.layer("rspq.snapshot_rebuilds_per_write", "count", ratio(d.sum("rspq_snapshot_rebuilds_total"), writes))
		r.rep.layer("rspq.compaction_ms", "ms", fin.mean("rspq_compaction_seconds")*1e3)
		r.rep.layer("rspq.compactions_per_s", "1/s", d.sum("rspq_compactions_total")/win.elapsed[traced].Seconds())
		r.lifetimeLayers(fin)
	}

	// The final edge set: the base edges no writer owned plus every
	// writer's FIFO.
	final := unowned
	for _, w := range writers {
		final = append(final, w.fifo...)
	}
	var sample []pair
	for _, i := range hottest(r.seed, len(pool)) {
		sample = append(sample, pool[i])
	}
	want, err := solveAll(streamPattern, buildGraph(g.n, final), sample)
	if err != nil {
		return err
	}
	// Before the crash the server must agree with the oracle too.
	r.agree(srv, chk, "live", sample, want)

	// Durability: kill -9, reboot on the same data dir, and require the
	// last acknowledged epoch and edge count and the oracle's answers.
	t0 := time.Now()
	srv.kill()
	srv, _, err = startServer(r.rspqd, args, filepath.Join(r.work, "rspqd.log"))
	if err != nil {
		srv = nil
		return err
	}
	h, err := srv.health()
	if err != nil {
		return err
	}
	if h.Epoch != lastAck.Epoch || h.Edges != lastAck.Edges || !h.WarmStart {
		r.check(fmt.Errorf("durability: rebooted at epoch %d with %d edges (warm=%v), last acknowledged epoch %d with %d edges",
			h.Epoch, h.Edges, h.WarmStart, lastAck.Epoch, lastAck.Edges))
	} else {
		r.check(nil)
	}
	r.agree(srv, chk, "rebooted", sample, want)
	r.rep.only("restart_s", "s", time.Since(t0).Seconds())
	if r.trace {
		fin, err := srv.scrape()
		if err != nil {
			return err
		}
		r.rep.layer("persist.recovery_ms", "ms", fin.sum("rspq_recovery_seconds")*1e3)
	}
	srv.kill()

	if r.trace {
		if err := r.replayWrites(path, acked); err != nil {
			return err
		}
		r.spanLayers()
	}
	return nil
}

// agree queries each pair on srv and counts a check per pair: the
// reply must match want and carry a valid witness.
func (r *run) agree(srv *server, chk *checker, when string, pairs []pair, want []bool) {
	k := srv.conn()
	defer k.close()
	for i, p := range pairs {
		var rep queryReply
		err := k.post("/query", appendPair(nil, p), &rep)
		if err == nil && rep.Found != want[i] {
			err = fmt.Errorf("%s server: (%d,%d) found=%v, in-process Solver on the final edge set says %v", when, p.x, p.y, rep.Found, want[i])
		}
		if err == nil {
			err = rep.verify(chk, p)
		}
		r.check(err)
	}
}

// replayWrites replays the first acknowledged writer batches in
// process through the durability layer, timing the calls rspqd makes
// per /edges request (WAL append, apply) and per compaction (merge,
// checkpoint).
func (r *run) replayWrites(path string, acked []ackedBatch) error {
	sort.Slice(acked, func(i, j int) bool { return acked[i].epoch < acked[j].epoch })
	root := r.tr.start("replay", 0)
	defer root.end()
	policy, err := persist.ParseSyncPolicy(fsyncPolicy)
	if err != nil {
		return err
	}
	open := r.tr.start("persist.Open", root.s.ID)
	db, g, err := persist.Open(persist.Options{
		Dir:       filepath.Join(r.work, "replay-data"),
		Sync:      policy,
		Bootstrap: func() (*graph.Graph, error) { return r.tracedReadText(path, open.s.ID) },
	})
	open.end()
	if err != nil {
		return err
	}
	defer db.Close()
	s, err := r.tracedSolver(streamPattern, root.s.ID)
	if err != nil {
		return err
	}
	var compact *openSpan
	var ckErr error
	cfg := rspq.EngineConfig{Checkpoint: func() {
		sp := r.tr.start("persist.DB.Checkpoint", compact.s.ID)
		if err := db.Checkpoint(g); err != nil && ckErr == nil {
			ckErr = err
		}
		sp.end()
	}}
	sp := r.tr.start("rspq.NewEngine", root.s.ID)
	eng := rspq.NewEngine(s, g, cfg)
	sp.end()
	for _, b := range acked {
		ops := make([]persist.Op, 0, len(b.adds)+len(b.removes))
		for _, e := range b.adds {
			ops = append(ops, persist.Op{Kind: persist.OpAddEdge, From: int(e.from), Label: e.label, To: int(e.to)})
		}
		for _, e := range b.removes {
			ops = append(ops, persist.Op{Kind: persist.OpRemoveEdge, From: int(e.from), Label: e.label, To: int(e.to)})
		}
		sp := r.tr.start("persist.DB.LogBatch", root.s.ID)
		_, err := db.LogBatch(ops)
		sp.end()
		if err != nil {
			return err
		}
		sp = r.tr.start("persist.ApplyOps", root.s.ID)
		_, err = persist.ApplyOps(g, ops)
		sp.end()
		if err != nil {
			return err
		}
		if eng.NeedsCompaction() {
			compact = r.tr.start("rspq.Engine.Compact", root.s.ID)
			eng.Compact()
			compact.end()
		}
	}
	if ckErr != nil {
		return ckErr
	}
	r.rep.layer("persist.open_ms", "ms", r.tr.meanMs("persist.Open"))
	r.rep.layer("persist.wal_append_us", "us", r.tr.meanMs("persist.DB.LogBatch")*1e3)
	r.rep.layer("persist.apply_us", "us", r.tr.meanMs("persist.ApplyOps")*1e3)
	r.rep.layer("persist.checkpoint_ms", "ms", r.tr.meanMs("persist.DB.Checkpoint"))
	r.rep.layer("rspq.engine.compact_ms", "ms", r.tr.meanMs("rspq.Engine.Compact"))
	return nil
}
