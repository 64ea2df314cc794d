package main

import (
	"strings"
	"testing"
)

// The checker's graph: 0 -a-> 1 -b-> 2 -b-> 3, plus 2 -a-> 0 closing a
// cycle and 1 -c-> 3.
func testChecker(t *testing.T) *checker {
	t.Helper()
	g := &genGraph{n: 4, edges: []edge{{0, 1, 'a'}, {1, 2, 'b'}, {2, 3, 'b'}, {2, 0, 'a'}, {1, 3, 'c'}}}
	chk, err := newChecker("a*(bb+|())c*", g.keys())
	if err != nil {
		t.Fatal(err)
	}
	return chk
}

func TestCheckerAcceptsValidWitness(t *testing.T) {
	chk := testChecker(t)
	if err := chk.witness(0, 3, []int{0, 1, 2, 3}, "abb"); err != nil {
		t.Fatalf("valid witness rejected: %v", err)
	}
	if err := chk.witness(0, 3, []int{0, 1, 3}, "ac"); err != nil {
		t.Fatalf("valid witness rejected: %v", err)
	}
}

func TestCheckerRejectsForgedWitness(t *testing.T) {
	chk := testChecker(t)
	for _, tc := range []struct {
		name     string
		x, y     int
		vertices []int
		word     string
		want     string
	}{
		{"non-edge", 0, 3, []int{0, 2, 3}, "ab", "no edge 0 -a-> 2"},
		{"wrong label", 0, 3, []int{0, 1, 2, 3}, "acb", "no edge 1 -c-> 2"},
		{"repeated vertex", 0, 3, []int{0, 1, 2, 0, 1, 3}, "abaac", "vertex 0 repeats"},
		{"word not in L", 1, 0, []int{1, 2, 0}, "ba", "not in the language"},
		{"wrong endpoints", 0, 2, []int{0, 1, 3}, "ac", "runs 0→3"},
		{"label count", 0, 3, []int{0, 1, 3}, "a", "1 labels for 3 vertices"},
		{"empty", 0, 3, nil, "", "without a witness"},
	} {
		err := chk.witness(tc.x, tc.y, tc.vertices, tc.word)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckerSeesAddedEdges(t *testing.T) {
	chk := testChecker(t)
	if err := chk.witness(3, 0, []int{3, 0}, "c"); err == nil {
		t.Fatal("witness over a missing edge accepted")
	}
	chk.noteAdded([]edge{{3, 0, 'c'}})
	if err := chk.witness(3, 0, []int{3, 0}, "c"); err != nil {
		t.Fatalf("witness over an added edge rejected: %v", err)
	}
}
