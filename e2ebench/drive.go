package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// tally is one client's counts and latencies for one phase.
type tally struct {
	reads, writes latHist
	pairs, edges  int64
	attempted     int64
	failed        int64
}

func (t *tally) merge(o *tally) {
	t.reads.merge(&o.reads)
	t.writes.merge(&o.writes)
	t.pairs += o.pairs
	t.edges += o.edges
	t.attempted += o.attempted
	t.failed += o.failed
}

// A window is cut into slices of sliceDur. An untimed run's slices are
// all untraced; a traced run alternates untraced and traced slices, so
// both see the same cache state and the difference between them is the
// tracing overhead.
const (
	untraced = 0
	traced   = 1
	sliceDur = time.Second
)

// stepFunc performs one closed-loop operation of client c, recording it
// into t; tr is true when the operation starts inside a traced slice.
type stepFunc func(c int, t *tally, tr bool)

// slice is one slice of a window, all clients merged.
type slice struct {
	t       tally
	elapsed time.Duration
	traced  bool
}

// window is what drive measured: per slice, and pooled by kind.
type window struct {
	slices  []slice
	phase   [2]tally
	elapsed [2]time.Duration
	warm    tally // warm-up operations: checked, but not measured
}

// warmFunc prepares client c before the window, recording into t.
type warmFunc func(c int, t *tally)

// repeat is the warm-up that runs step n times per client.
func repeat(step stepFunc, n int) warmFunc {
	return func(c int, t *tally) {
		for i := 0; i < n; i++ {
			step(c, t, false)
		}
	}
}

// drive runs clients closed-loop clients: each runs warm, then repeats
// step until the window ends. An operation counts in the slice it
// started in. With traceMode every odd slice is traced, and edge is
// called just before each traced slice starts (begin=true) and just
// after it ends (begin=false) — where server-side counters are scraped.
func drive(clients int, warm warmFunc, seconds float64, traceMode bool, step stepFunc, edge func(begin bool) error) (*window, error) {
	n := max(1, int(math.Round(seconds/sliceDur.Seconds())))
	isTraced := func(k int) bool { return traceMode && k%2 == 1 }
	var (
		cur   atomic.Int32 // slice in progress; -1 once the window is over
		wg    sync.WaitGroup
		tals  = make([][]tally, clients)
		warms = make([]tally, clients)
		ready sync.WaitGroup
		start = make(chan struct{})
	)
	ready.Add(clients)
	for c := 0; c < clients; c++ {
		tals[c] = make([]tally, n)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			warm(c, &warms[c])
			ready.Done()
			<-start
			for {
				k := cur.Load()
				if k < 0 {
					return
				}
				step(c, &tals[c][k], isTraced(int(k)))
			}
		}(c)
	}
	ready.Wait()
	w := &window{slices: make([]slice, n)}
	var err error
	t0 := time.Now()
	ts := t0
	close(start)
	for k := 0; k < n && err == nil; k++ {
		time.Sleep(time.Until(t0.Add(time.Duration(k+1) * sliceDur)))
		if k+1 < n && isTraced(k+1) {
			if err = edge(true); err != nil {
				break
			}
		}
		end := time.Now()
		if k+1 < n {
			cur.Store(int32(k + 1))
		} else {
			cur.Store(-1)
		}
		w.slices[k] = slice{elapsed: end.Sub(ts), traced: isTraced(k)}
		ts = end
		if isTraced(k) {
			err = edge(false)
		}
	}
	cur.Store(-1)
	wg.Wait()
	for k := range w.slices {
		sl := &w.slices[k]
		for c := range tals {
			sl.t.merge(&tals[c][k])
		}
		kind := untraced
		if sl.traced {
			kind = traced
		}
		w.phase[kind].merge(&sl.t)
		w.elapsed[kind] += sl.elapsed
	}
	for c := range warms {
		w.warm.merge(&warms[c])
	}
	if err != nil {
		return nil, fmt.Errorf("traced slice edge: %w", err)
	}
	return w, nil
}

// failures collects the first few failure messages of a run; the
// count itself lives in the tallies.
type failures struct {
	mu   sync.Mutex
	msgs []string
}

func (f *failures) note(t *tally, err error) {
	t.failed++
	f.record(err)
}

func (f *failures) record(err error) {
	f.mu.Lock()
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, err.Error())
	}
	f.mu.Unlock()
}

// answers remembers the found bit first seen for each pool pair; on a
// static graph a later reply that disagrees is a wrong answer.
type answers []atomic.Int32

const (
	ansFound    = 1
	ansNotFound = 2
)

func (a answers) note(i int, found bool) error {
	v := int32(ansNotFound)
	if found {
		v = ansFound
	}
	// Load first: a failed CompareAndSwap still takes the cache line
	// exclusively, which would couple the clients on every hit.
	if cur := a[i].Load(); cur == v || (cur == 0 && a[i].CompareAndSwap(0, v)) || a[i].Load() == v {
		return nil
	}
	return fmt.Errorf("pool pair %d: found=%v now, the opposite earlier", i, found)
}

// idxStream replays a pre-drawn ring of Zipf(s)-distributed pool
// indices, one deterministic stream per client, so drawing costs the
// client loop nothing measurable.
type idxStream struct {
	idx []int32
	pos int
}

func newIdxStream(seed int64, s float64, poolSize int) *idxStream {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(poolSize-1))
	st := &idxStream{idx: make([]int32, 1<<16)}
	for i := range st.idx {
		st.idx[i] = int32(z.Uint64())
	}
	return st
}

func (s *idxStream) next() int {
	i := s.idx[s.pos]
	s.pos = (s.pos + 1) & (len(s.idx) - 1)
	return int(i)
}
