package graph

import (
	"math/rand"
	"testing"
)

// checkPartition asserts the pinned view's partition has K shards whose
// row ranges tile [0, n) in order, that ShardOf agrees with the ranges,
// and that the per-shard edge counts are the rows' out-degrees and sum
// to the edge count.
func checkPartition(t *testing.T, g *Graph, wantK int) {
	t.Helper()
	vw := g.PinView()
	pt := vw.Partition()
	if pt.NumShards() != wantK {
		t.Fatalf("NumShards = %d, want %d", pt.NumShards(), wantK)
	}
	next, edges := 0, 0
	for s := 0; s < pt.NumShards(); s++ {
		lo, hi := pt.Bounds(s)
		if lo != next || hi < lo {
			t.Fatalf("shard %d covers [%d, %d), want it to start at %d", s, lo, hi, next)
		}
		next = hi
		deg := 0
		for v := lo; v < hi; v++ {
			if got := pt.ShardOf(v); got != s {
				t.Fatalf("ShardOf(%d) = %d, want %d", v, got, s)
			}
			deg += vw.OutDegree(v)
		}
		if got := vw.OutDegreeRange(lo, hi); got != deg {
			t.Fatalf("shard %d: OutDegreeRange = %d, out-degrees sum to %d", s, got, deg)
		}
		edges += deg
	}
	if wantK > 0 && next != vw.NumVertices() {
		t.Fatalf("shards cover [0, %d), want [0, %d)", next, vw.NumVertices())
	}
	if wantK > 0 && edges != g.NumEdges() {
		t.Fatalf("shard edges sum to %d, want %d", edges, g.NumEdges())
	}
}

// TestShardedSplitEquivalence pins the row partition of a frozen graph
// across shard counts, graph sizes (including empty, single-vertex and
// K > n), and alphabet shapes.
func TestShardedSplitEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 40} {
		for _, k := range []int{1, 2, 3, 8, 64} {
			g := Random(n, []byte{'a', 'b', 'c'}, 0.15, int64(n*100+k))
			if n > 2 {
				g.AddEdge(0, 'a', n-1) // guarantee at least one edge
			}
			g.SetShards(k)
			checkPartition(t, g, k)
		}
	}
}

// TestShardedDeltaMergeEquivalence drives the randomized mutate /
// refreeze loop with sharding configured and asserts, on overlay views
// and after every freeze, that the partition tiles the current vertex
// set — including vertices added after the base was frozen, which an
// overlay view now keeps inside the last shard — and that the view
// reads the same rows as a rebuild.
func TestShardedDeltaMergeEquivalence(t *testing.T) {
	labels := []byte{'a', 'b', 'c'}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := []int{1, 2, 3, 8}[seed%4]
		g := New(6 + rng.Intn(20))
		g.SetShards(k)
		for i := 0; i < 60; i++ {
			g.AddEdge(rng.Intn(g.NumVertices()), labels[rng.Intn(len(labels))], rng.Intn(g.NumVertices()))
		}
		checkPartition(t, g, k)
		live := g.Edges()
		for step := 0; step < 80; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				e := Edge{From: rng.Intn(g.NumVertices()), Label: labels[rng.Intn(len(labels))], To: rng.Intn(g.NumVertices())}
				if !g.HasEdge(e.From, e.Label, e.To) {
					live = append(live, e)
				}
				g.AddEdge(e.From, e.Label, e.To)
			case op < 8:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					g.RemoveEdge(live[i].From, live[i].Label, live[i].To)
					live = append(live[:i], live[i+1:]...)
				}
			case op < 9:
				g.AddVertex() // partition boundaries move
			default:
				checkPartition(t, g, k)
				checkViewAgainstCSR(t, g.PinView(), rebuildOracle(g))
				g.Freeze()
				checkPartition(t, g, k)
			}
		}
		checkPartition(t, g, k)
		g.AddEdge(0, 'z', g.NumVertices()-1) // alphabet change: full rebuild
		checkPartition(t, g, k)
	}
}

// TestSetShards pins the configuration semantics: unsharded by default,
// reconfiguration re-pins the partition, and disabling returns to K = 0.
func TestSetShards(t *testing.T) {
	g := New(10)
	for v := 0; v < 9; v++ {
		g.AddEdge(v, 'a', v+1)
	}
	checkPartition(t, g, 0)
	g.SetShards(4)
	if g.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d, want 4", g.ShardCount())
	}
	checkPartition(t, g, 4)
	g.SetShards(2)
	checkPartition(t, g, 2)
	g.SetShards(0)
	checkPartition(t, g, 0)
}

// TestShardedSnapshotImmutable pins that a view pinned before a
// mutation keeps its partition and its rows after the refreeze.
func TestShardedSnapshotImmutable(t *testing.T) {
	g := New(8)
	for v := 0; v < 7; v++ {
		g.AddEdge(v, 'a', v+1)
	}
	g.SetShards(3)
	old := g.PinView()
	oldOut := append([]int32(nil), old.OutWithID(0, 0)...)
	g.AddEdge(0, 'a', 5)
	g.RemoveEdge(0, 'a', 1)
	g.AddVertex()
	g.Freeze()
	if old.Partition() != newPartition(8, 3) {
		t.Fatalf("pinned partition changed to %+v", old.Partition())
	}
	if !equalInt32(old.OutWithID(0, 0), oldOut) {
		t.Fatal("pre-mutation view was mutated by the refreeze")
	}
	if g.PinView().Partition() != newPartition(9, 3) {
		t.Fatalf("new view partition %+v, want it over 9 rows", g.PinView().Partition())
	}
	checkPartition(t, g, 3)
}
