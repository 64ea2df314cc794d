package rspq

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestEngineOverlaySoak is the randomized interleaved mutate/query soak
// of the view refactor, designed to run under -race: a mutator applies
// edge deltas to the engine's graph and replaces the oracle mirror with
// a fresh graph built from the engine graph's Edges() (every mirror
// snapshot is a full rebuild), a compactor occasionally merges the engine's
// delta away mid-stream, and query workers require every engine answer
// to match the oracle's at the same pinned generation. The RWMutex
// discipline is cmd/rspqd's: mutations and compactions under the write
// lock, queries under read locks.
func TestEngineOverlaySoak(t *testing.T) {
	const n = 80
	labels := []byte{'a', 'b', 'c'}
	g := graph.New(n)
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 4*n; i++ {
		g.AddEdge(rng.Intn(n), labels[rng.Intn(len(labels))], rng.Intn(n))
	}
	mirror := rebuiltOracle(g) // oracle: a fresh full build per generation
	generations := 1
	s, err := NewSolver("a*(bb+|())c*") // summary tier: the deepest kernel stack
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s, g, EngineConfig{})
	s.Warm(mirror)

	var mu sync.RWMutex
	stop := make(chan struct{})
	var background sync.WaitGroup

	background.Add(1)
	go func() { // mutator: mutate the engine graph, then rebuild the oracle
		defer background.Done()
		mrng := rand.New(rand.NewSource(67))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			for k := 0; k < 3; k++ {
				from, label, to := mrng.Intn(n), labels[mrng.Intn(len(labels))], mrng.Intn(n)
				if !g.RemoveEdge(from, label, to) {
					g.AddEdge(from, label, to)
				}
			}
			mirror = rebuiltOracle(g)
			generations++
			// Warm the oracle inside the lock so concurrent readers never
			// race its lazy rebuild.
			s.Warm(mirror)
			mu.Unlock()
		}
	}()

	background.Add(1)
	go func() { // compactor: random write-locked merges mid-stream
		defer background.Done()
		crng := rand.New(rand.NewSource(71))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if crng.Intn(8) == 0 {
				mu.Lock()
				e.Compact()
				mu.Unlock()
			}
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			wrng := rand.New(rand.NewSource(int64(w + 73)))
			for i := 0; i < 150; i++ {
				x, y := wrng.Intn(n), wrng.Intn(n)
				mu.RLock()
				got := e.Solve(x, y)
				want := s.Solve(mirror, x, y)
				okWitness := VerifyWitness(got, g, s.Min, x, y)
				mu.RUnlock()
				if got.Found != want.Found {
					t.Errorf("worker %d: engine(%d,%d)=%v, full-rebuild oracle says %v",
						w, x, y, got.Found, want.Found)
					return
				}
				if !okWitness {
					t.Errorf("worker %d: invalid engine witness for (%d,%d)", w, x, y)
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	background.Wait()

	// The oracle must really have been rebuilt from scratch, and the
	// soak must have exercised both the overlay and the compactor at
	// least plausibly (the mutator runs the whole time, so the first
	// post-mutation query pins an overlay).
	if full, inc := mirror.FreezeStats(); inc != 0 || full != 1 || generations < 2 {
		t.Fatalf("oracle freezes (full=%d, inc=%d) over %d generations: each mirror must be one fresh build", full, inc, generations)
	}
	st := e.Stats()
	if st.OverlayReads == 0 {
		t.Fatal("soak never served a query through an overlay view")
	}
}
