package rspq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
)

// This suite cross-validates the CSR-backed engine against slice-backed
// reference implementations that walk an adjacency list built from the
// graph's edge list before its first freeze (refAdjacency), and against
// exhaustive simple-path enumeration, on seeded random graphs covering
// all three trichotomy tiers. It is the safety net for the
// frozen-graph/arena rewrite: any divergence between the optimized
// product searches and the naive adjacency-list semantics fails here.

// refAdjacency lists g's out-edges per vertex from g.Edges(). Called
// before the first freeze, it reads the pending edge list, so the
// references below share no storage with the CSR under test.
func refAdjacency(g *graph.Graph) [][]graph.Edge {
	adj := make([][]graph.Edge, g.NumVertices())
	for _, e := range g.Edges() {
		adj[e.From] = append(adj[e.From], e)
	}
	return adj
}

// refExistsSimplePath enumerates simple paths by unpruned backtracking
// over the slice adjacency — exponential, ground truth for small n.
func refExistsSimplePath(adj [][]graph.Edge, d *automaton.DFA, x, y int) bool {
	visited := make([]bool, len(adj))
	var dfs func(v, q int) bool
	dfs = func(v, q int) bool {
		if v == y && d.Accept[q] {
			return true
		}
		for _, e := range adj[v] {
			t, ok := d.StepOK(q, e.Label)
			if !ok || visited[e.To] {
				continue
			}
			visited[e.To] = true
			if dfs(e.To, t) {
				return true
			}
			visited[e.To] = false
		}
		return false
	}
	visited[x] = true
	return dfs(x, d.Start)
}

// refShortestWalkLen is the slice-backed product BFS: the length of a
// shortest L-labeled walk from x to y, or -1.
func refShortestWalkLen(adj [][]graph.Edge, d *automaton.DFA, x, y int) int {
	m := d.NumStates
	dist := make([]int, len(adj)*m)
	for i := range dist {
		dist[i] = -1
	}
	start := x*m + d.Start
	dist[start] = 0
	queue := []int{start}
	for at := 0; at < len(queue); at++ {
		id := queue[at]
		v, q := id/m, id%m
		if v == y && d.Accept[q] {
			return dist[id]
		}
		for _, e := range adj[v] {
			t, ok := d.StepOK(q, e.Label)
			if !ok {
				continue
			}
			nid := e.To*m + t
			if dist[nid] < 0 {
				dist[nid] = dist[id] + 1
				queue = append(queue, nid)
			}
		}
	}
	return -1
}

// equivLanguages spans the trichotomy: AC⁰ (finite), NL (trC with Ψtr
// form, one of them subword-closed), NP-complete.
var equivLanguages = []string{
	"ab|ba|aab",     // finite → AC⁰ tier
	"a*c*",          // subword-closed → trC(0) fast path
	"a*(bb+|())c*",  // Example 1 → trC summary solver
	"a(c{2,}|())a*", // Example 2 shape → trC summary solver
	"(ab)*",         // NP-complete tier → exponential baseline
	"a*b(cc)*a",     // NP-complete tier
}

func TestCSREquivalenceRandomGraphs(t *testing.T) {
	for _, pattern := range equivLanguages {
		s, err := NewSolver(pattern)
		if err != nil {
			t.Fatalf("compile %q: %v", pattern, err)
		}
		t.Run(pattern, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed * 7919))
				n := 4 + rng.Intn(7)
				g := graph.Random(n, []byte{'a', 'b', 'c'}, 0.22, seed)
				adj := refAdjacency(g)
				s.Warm(g)
				for trial := 0; trial < 6; trial++ {
					x, y := rng.Intn(n), rng.Intn(n)
					want := refExistsSimplePath(adj, s.Min, x, y)
					ctx := fmt.Sprintf("seed=%d n=%d x=%d y=%d", seed, n, x, y)

					// Dispatcher (CSR-backed), twice: the second call runs
					// entirely on pooled warm scratch.
					for rep := 0; rep < 2; rep++ {
						res := s.Solve(g, x, y)
						if res.Found != want {
							t.Fatalf("%s rep=%d: Solve=%v want %v (algo %v)", ctx, rep, res.Found, want, s.ChooseAlgorithm(g))
						}
						if !VerifyWitness(res, g, s.Min, x, y) {
							t.Fatalf("%s rep=%d: Solve witness invalid: %v", ctx, rep, res.Path)
						}
					}

					// Exponential baseline on the CSR path.
					res := s.SolveWith(g, x, y, AlgoBaseline)
					if res.Found != want || !VerifyWitness(res, g, s.Min, x, y) {
						t.Fatalf("%s: Baseline=%v want %v", ctx, res.Found, want)
					}

					// Shortest variant: optimal and witness-valid.
					short := s.Shortest(g, x, y)
					if short.Found != want || !VerifyWitness(short, g, s.Min, x, y) {
						t.Fatalf("%s: Shortest=%v want %v", ctx, short.Found, want)
					}
					bs := BaselineShortest(g, s.Min, x, y, nil)
					if bs.Found != want || !VerifyWitness(bs, g, s.Min, x, y) {
						t.Fatalf("%s: BaselineShortest=%v want %v", ctx, bs.Found, want)
					}
					if want && short.Path.Len() != bs.Path.Len() {
						t.Fatalf("%s: Shortest len %d != BaselineShortest len %d", ctx, short.Path.Len(), bs.Path.Len())
					}

					// Summary solver wherever a Ψtr plan exists.
					if s.Expr != nil && s.Classification.Tractable {
						sum := SolvePsitr(g, s.Expr, x, y, false)
						if sum.Found != want || !VerifyWitness(sum, g, s.Min, x, y) {
							t.Fatalf("%s: SolvePsitr=%v want %v", ctx, sum.Found, want)
						}
					}

					// Walk semantics against the slice-backed product BFS.
					wantWalk := refShortestWalkLen(adj, s.Min, x, y)
					walk := ShortestWalk(g, s.Min, x, y)
					switch {
					case wantWalk < 0 && walk != nil:
						t.Fatalf("%s: ShortestWalk found a walk, reference does not", ctx)
					case wantWalk >= 0 && walk == nil:
						t.Fatalf("%s: ShortestWalk missed a walk of length %d", ctx, wantWalk)
					case walk != nil && walk.Len() != wantWalk:
						t.Fatalf("%s: ShortestWalk len %d, reference %d", ctx, walk.Len(), wantWalk)
					}
					if ExistsWalk(g, s.Min, x, y) != (wantWalk >= 0) {
						t.Fatalf("%s: ExistsWalk disagrees with reference", ctx)
					}
				}
			}
		})
	}
}

// TestCSREquivalenceColorCoding checks the FPT algorithm against the
// reference with k = n-1 (where k-RSPQ coincides with RSPQ). YES
// answers are certified; NO answers are Monte Carlo, so the seeds are
// fixed and the trial count generous.
func TestCSREquivalenceColorCoding(t *testing.T) {
	s, err := NewSolver("a*ba*")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		n := 4 + rng.Intn(5)
		g := graph.Random(n, []byte{'a', 'b'}, 0.25, seed)
		adj := refAdjacency(g)
		for trial := 0; trial < 4; trial++ {
			x, y := rng.Intn(n), rng.Intn(n)
			want := refExistsSimplePath(adj, s.Min, x, y)
			res := ColorCoding(g, s.Min, x, y, n-1, ColorCodingOptions{Seed: 42, Trials: 300})
			if res.Found != want {
				t.Fatalf("seed=%d x=%d y=%d: ColorCoding=%v want %v", seed, x, y, res.Found, want)
			}
			if !VerifyWitness(res, g, s.Min, x, y) {
				t.Fatalf("seed=%d: ColorCoding witness invalid", seed)
			}
		}
	}
}

// TestCSREquivalenceDAG pins the DAG fast path (every walk simple)
// against the reference on layered acyclic graphs.
func TestCSREquivalenceDAG(t *testing.T) {
	s, err := NewSolver("(a|b)*a(a|b)*")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		dag := graph.LayeredDAG(5, 4, 3, []byte{'a', 'b'}, seed)
		n := dag.NumVertices()
		adj := refAdjacency(dag)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 8; trial++ {
			x, y := rng.Intn(n), rng.Intn(n)
			want := refExistsSimplePath(adj, s.Min, x, y)
			res, ok := DAG(dag, s.Min, x, y)
			if !ok {
				t.Fatal("LayeredDAG must be acyclic")
			}
			if res.Found != want || !VerifyWitness(res, dag, s.Min, x, y) {
				t.Fatalf("seed=%d x=%d y=%d: DAG=%v want %v", seed, x, y, res.Found, want)
			}
		}
	}
}
