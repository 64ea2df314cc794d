package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/automaton"
)

// edge is one labeled directed edge of a generated graph.
type edge struct {
	from, to int32
	label    byte
}

// edgeKey packs an edge into one comparable word: 28 bits per vertex
// id leave room for graphs far larger than any workload here.
func edgeKey(from int, label byte, to int) uint64 {
	return uint64(from)<<36 | uint64(to)<<8 | uint64(label)
}

// genGraph is a workload graph as the benchmark sees it: the edge list
// the server loads, plus reverse adjacency for planting answerable
// pairs.
type genGraph struct {
	n     int
	edges []edge
	in    [][]edge // in[v]: edges into v
}

// randomGraph draws n vertices with outDeg distinct (label, target)
// out-edges each, labels uniform over labels, no self-loops. The
// generator is the benchmark's own (math/rand's seeded source is frozen
// by the Go 1 compatibility promise), so a seed names the same graph
// on every commit.
func randomGraph(seed int64, n, outDeg int, labels string) *genGraph {
	r := rand.New(rand.NewSource(seed))
	g := &genGraph{n: n, edges: make([]edge, 0, n*outDeg), in: make([][]edge, n)}
	seen := make(map[uint64]bool, outDeg)
	for v := 0; v < n; v++ {
		clear(seen)
		for len(seen) < outDeg {
			to := r.Intn(n - 1)
			if to >= v {
				to++
			}
			l := labels[r.Intn(len(labels))]
			k := edgeKey(v, l, to)
			if seen[k] {
				continue
			}
			seen[k] = true
			e := edge{int32(v), int32(to), l}
			g.edges = append(g.edges, e)
			g.in[to] = append(g.in[to], e)
		}
	}
	return g
}

// keys returns the sorted packed edge set.
func (g *genGraph) keys() []uint64 {
	ks := make([]uint64, len(g.edges))
	for i, e := range g.edges {
		ks[i] = edgeKey(int(e.from), e.label, int(e.to))
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// writeText writes the graph in the "n <count>" / "e <from> <label>
// <to>" line format that rspqd -graph and graph.ReadText read.
func (g *genGraph) writeText(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "n %d\n", g.n)
	for _, e := range g.edges {
		fmt.Fprintf(w, "e %d %c %d\n", e.from, e.label, e.to)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pair is one (x, y) query.
type pair struct{ x, y int }

// pairPool draws targets distinct random targets and perTarget sources
// for each. Half the sources are planted — the far end of a backward
// random walk from the target whose reversed label word dfa accepts,
// so the pair usually has an answer — and half are uniform, which on
// the sparse workloads mostly have none; both outcomes are exercised.
// The pool is shuffled so Zipf rank 0 is an arbitrary pair.
func pairPool(seed int64, g *genGraph, dfa *automaton.DFA, targets, perTarget int) []pair {
	r := rand.New(rand.NewSource(seed))
	pool := make([]pair, 0, targets*perTarget)
	for _, y := range r.Perm(g.n)[:targets] {
		for i := 0; i < perTarget; i++ {
			x := -1
			if i%2 == 0 {
				x = plantSource(r, g, dfa, y)
			}
			for x < 0 || x == y {
				x = r.Intn(g.n)
			}
			pool = append(pool, pair{x, y})
		}
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// plantSource walks backward from y up to 8 edges and returns the
// walk's start when the word read forward from it is in the language,
// or -1 after a few failed tries.
func plantSource(r *rand.Rand, g *genGraph, dfa *automaton.DFA, y int) int {
	for try := 0; try < 16; try++ {
		v, word := y, make([]byte, 0, 8)
		steps := 1 + r.Intn(8)
		for s := 0; s < steps && len(g.in[v]) > 0; s++ {
			e := g.in[v][r.Intn(len(g.in[v]))]
			word = append(word, e.label)
			v = int(e.from)
		}
		if v == y || len(word) == 0 {
			continue
		}
		for i, j := 0, len(word)-1; i < j; i, j = i+1, j-1 {
			word[i], word[j] = word[j], word[i]
		}
		if dfa.Member(string(word)) {
			return v
		}
	}
	return -1
}

// clientSeed derives the seed of one client's stream from the workload
// seed, so clients draw different but reproducible sequences.
func clientSeed(seed int64, stream string, client int) int64 {
	h := int64(1469598103934665603)
	for _, c := range stream {
		h = (h ^ int64(c)) * 1099511628211
	}
	return seed*1000003 + h + int64(client)*7919
}
