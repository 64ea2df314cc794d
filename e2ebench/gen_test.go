package main

import (
	"slices"
	"testing"

	"repro/internal/automaton"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	dfa, err := automaton.MinDFAFromPattern(hotPattern)
	if err != nil {
		t.Fatal(err)
	}
	pools := func(seed int64) ([]edge, []pair) {
		g := randomGraph(seed, 2000, 3, "abc")
		return g.edges, pairPool(seed+1, g, dfa, 8, 16)
	}
	e1, p1 := pools(7)
	e2, p2 := pools(7)
	e3, p3 := pools(8)
	if !slices.Equal(e1, e2) || !slices.Equal(p1, p2) {
		t.Fatal("same seed gave different graphs or pools")
	}
	if slices.Equal(e1, e3) || slices.Equal(p1, p3) {
		t.Fatal("different seeds gave the same graph or pool")
	}
	if len(e1) != 2000*3 || len(p1) != 8*16 {
		t.Fatalf("got %d edges and %d pairs", len(e1), len(p1))
	}
	for _, p := range p1 {
		if p.x == p.y {
			t.Fatalf("pool pair %v has x == y", p)
		}
	}
}

func TestZipfStreamsDeterministicAndSkewed(t *testing.T) {
	a := newIdxStream(clientSeed(3, "query", 0), zipfS, 4096)
	b := newIdxStream(clientSeed(3, "query", 0), zipfS, 4096)
	c := newIdxStream(clientSeed(3, "query", 1), zipfS, 4096)
	if !slices.Equal(a.idx, b.idx) {
		t.Fatal("same seed gave different Zipf streams")
	}
	if slices.Equal(a.idx, c.idx) {
		t.Fatal("two clients drew the same Zipf stream")
	}
	counts := make([]int, 4096)
	for _, i := range a.idx {
		counts[i]++
	}
	// Zipf(1.1) over 4096 ranks puts about a fifth of the draws on rank 0.
	if counts[0] < len(a.idx)/8 || counts[0] <= counts[1] || counts[1] <= counts[100] {
		t.Fatalf("rank counts not Zipf-skewed: r0=%d r1=%d r100=%d", counts[0], counts[1], counts[100])
	}
}

func TestBatchPairsDeterministic(t *testing.T) {
	targets := []int{5, 3, 9, 0, 1, 2, 4, 6, 7, 8}
	targets = append(targets, make([]int, 90)...)
	for i := range targets[10:] {
		targets[10+i] = 10 + i
	}
	p1 := batchPairs(4, targets, 2)
	p2 := batchPairs(4, targets, 2)
	if !slices.Equal(p1, p2) {
		t.Fatal("same batch index gave different pairs")
	}
	seen := map[int]bool{}
	for _, p := range p1 {
		if p.y != 9 || p.x == 9 || seen[p.x] {
			t.Fatalf("batch 2 pair %v: want target 9 and distinct sources", p)
		}
		seen[p.x] = true
	}
}
