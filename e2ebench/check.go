package main

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/automaton"
)

// checker validates every witness a workload gets back against the
// benchmark's own copy of the graph and the language's minimal DFA,
// built independently of the engine from the source pattern.
type checker struct {
	dfa  *automaton.DFA
	base []uint64 // sorted edgeKeys of the generated graph

	// added holds every edge a writer has ever inserted. Removals are
	// not subtracted: a read racing a remove may legitimately still
	// use the edge, so a witness is checked against base ∪ added.
	mu    sync.RWMutex
	added map[uint64]struct{}
}

func newChecker(pattern string, base []uint64) (*checker, error) {
	dfa, err := automaton.MinDFAFromPattern(pattern)
	if err != nil {
		return nil, fmt.Errorf("compile %q: %w", pattern, err)
	}
	return &checker{dfa: dfa, base: base, added: make(map[uint64]struct{})}, nil
}

// noteAdded records edges a writer is about to insert; writers call it
// before sending, so a witness that uses the edge can never arrive
// before the checker knows it.
func (c *checker) noteAdded(es []edge) {
	c.mu.Lock()
	for _, e := range es {
		c.added[edgeKey(int(e.from), e.label, int(e.to))] = struct{}{}
	}
	c.mu.Unlock()
}

func (c *checker) hasEdge(from int, label byte, to int) bool {
	k := edgeKey(from, label, to)
	i := sort.Search(len(c.base), func(i int) bool { return c.base[i] >= k })
	if i < len(c.base) && c.base[i] == k {
		return true
	}
	c.mu.RLock()
	_, ok := c.added[k]
	c.mu.RUnlock()
	return ok
}

// witness reports why the path (vertices, word) is not a valid answer
// to (x, y): it must run from x to y, be simple, use only edges of the
// graph, and spell a word of the language.
func (c *checker) witness(x, y int, vertices []int, word string) error {
	if len(vertices) == 0 {
		return fmt.Errorf("(%d,%d): found without a witness", x, y)
	}
	if vertices[0] != x || vertices[len(vertices)-1] != y {
		return fmt.Errorf("(%d,%d): witness runs %d→%d", x, y, vertices[0], vertices[len(vertices)-1])
	}
	if len(word) != len(vertices)-1 {
		return fmt.Errorf("(%d,%d): %d labels for %d vertices", x, y, len(word), len(vertices))
	}
	seen := make(map[int]bool, len(vertices))
	for i, v := range vertices {
		if seen[v] {
			return fmt.Errorf("(%d,%d): vertex %d repeats", x, y, v)
		}
		seen[v] = true
		if i > 0 && !c.hasEdge(vertices[i-1], word[i-1], v) {
			return fmt.Errorf("(%d,%d): no edge %d -%c-> %d", x, y, vertices[i-1], word[i-1], v)
		}
	}
	if !c.dfa.Member(word) {
		return fmt.Errorf("(%d,%d): word %q not in the language", x, y, word)
	}
	return nil
}
