// Package graph implements the paper's graph-database models — db-graphs
// (edge-labeled directed graphs), vl-graphs (vertex-labeled) and
// evl-graphs (vertex-and-edge-labeled) — together with paths, seeded
// workload generators and plain-text / DOT serialization.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/automaton"
)

// Edge is a labeled directed edge of a db-graph.
type Edge struct {
	From  int
	Label byte
	To    int
}

// Graph is a db-graph: a finite directed graph whose edges carry
// single-byte labels. Vertices are dense integers in [0, NumVertices()).
// The zero value is an empty graph ready to use.
//
// The graph has one representation: a frozen CSR (the base) plus the
// add/remove delta recorded since it was built (delta.go). Every reader
// — the kernels through a pinned View, and OutEdges / Edges / HasEdge
// here — reads the base plus the delta. A graph that was never frozen
// has no base yet: its edges sit in an insertion-ordered pending list
// until the first Freeze builds the CSR from it.
//
// Derived data that a query would otherwise recompute per call — the
// alphabet, acyclicity and the CSR snapshot (see Freeze) — is cached on
// first use and invalidated by mutation, so a warm graph answers these
// in O(1). Each mutation advances the Epoch, so epoch-keyed caches
// built on top (rspq.Engine) invalidate exactly.
type Graph struct {
	n     int
	edges int
	names []string // display names, grown on demand; "" when unset

	// pending lists the edges of a never-frozen graph in insertion
	// order, and pendingAt indexes it for dedup and O(1) removal. The
	// first Freeze builds the base from the list and drops both.
	pending   []edgeKey
	pendingAt map[edgeKey]int32

	// Lazily built caches, dropped on mutation.
	alpha      automaton.Alphabet
	alphaValid bool
	csr        *CSR
	acyclic    int8 // 0 unknown, 1 acyclic, 2 cyclic

	// labelCount tracks how many edges carry each label, so the
	// alphabet is derivable in O(256) after any mutation instead of an
	// O(E) rescan.
	labelCount [256]int

	// Delta state (delta.go): the base CSR the pending delta is
	// relative to (nil until the first Freeze), the add/remove buffers
	// recording every edge mutation since it was built, and the freeze
	// counters.
	csrBase       *CSR
	addBuf        map[edgeKey]struct{}
	delBuf        map[edgeKey]struct{}
	deltaNewLabel bool // some buffered add carries a label absent from csrBase
	fullBuilds    atomic.Uint64
	incBuilds     atomic.Uint64

	// Freeze telemetry (delta.go accessors): cumulative and
	// most-recent build wall time, and the delta sizes (adds +
	// removes) those builds absorbed. Atomic so a metrics scrape may
	// read them while a background compaction freezes.
	freezeNanos     atomic.Uint64
	lastFreezeNanos atomic.Uint64
	freezeDelta     atomic.Uint64
	lastFreezeDelta atomic.Uint64

	// shardCount is the configured row partition (shard.go; 0 =
	// unsharded), handed to every view this graph pins.
	shardCount int

	// view is the pinned read snapshot of the current epoch (view.go),
	// built lazily by PinView and dropped whenever it could go stale: on
	// mutation, on Freeze, and on SetShards.
	view *View

	// epoch counts mutations (see Epoch). It is atomic so long-lived
	// engines may poll it for staleness without synchronizing with the
	// mutator; everything else on the graph keeps the documented
	// contract that mutations must not race queries.
	epoch atomic.Uint64
}

// edgeKey is the compact form of an Edge used by the pending list and
// the delta sets: vertex ids fit int32 like the CSR's, and the 12-byte
// key hashes faster and takes half the room of an Edge.
type edgeKey struct {
	from, to int32
	label    byte
}

func (k edgeKey) edge() Edge { return Edge{From: int(k.from), Label: k.label, To: int(k.to)} }

// invalidate drops the caches a mutation may falsify and advances the
// mutation epoch. The acyclicity verdict is NOT dropped here — each
// mutator keeps it when the mutation provably cannot flip it (see
// AddEdge / RemoveEdge / AddVertex), so acyclicity is revalidated
// incrementally only when a delta could actually create or break a
// cycle. The base CSR survives: the delta is recorded against it.
func (g *Graph) invalidate() {
	g.alpha = nil
	g.alphaValid = false
	g.csr = nil
	g.view = nil
	g.epoch.Add(1)
}

// Epoch returns the graph's monotonic mutation counter: it advances on
// every structural change (AddVertex / AddEdge / …) and never
// otherwise, so any datum derived from the graph — a CSR snapshot, a
// pruning table, a cached query result — can be keyed by the epoch it
// was built under and goes stale automatically when the graph mutates,
// with no explicit purge calls. Unlike the rest of the Graph API,
// Epoch is safe to call concurrently with mutations.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// New returns a graph with n isolated vertices.
func New(n int) *Graph { return &Graph{n: n} }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddVertex appends an isolated vertex and returns its id. An isolated
// vertex can neither create nor break a cycle, so the cached acyclicity
// verdict survives; the delta records only the row-count growth.
func (g *Graph) AddVertex() int {
	g.invalidate()
	g.n++
	return g.n - 1
}

// AddNamedVertex appends a vertex carrying a display name.
func (g *Graph) AddNamedVertex(name string) int {
	v := g.AddVertex()
	g.names = append(g.names, make([]string, v+1-len(g.names))...)
	g.names[v] = name
	return v
}

// Name returns the display name of v (its id rendered in decimal when no
// name was assigned).
func (g *Graph) Name(v int) string {
	if v < len(g.names) && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// inRange reports whether both endpoints name existing vertices.
func (g *Graph) inRange(from, to int) bool {
	return from >= 0 && from < g.n && to >= 0 && to < g.n
}

// has reports whether the edge is present: in the pending list of a
// never-frozen graph, else in the base (binary search) and not
// tombstoned, or in the add buffer.
func (g *Graph) has(k edgeKey) bool {
	if g.csrBase == nil {
		_, ok := g.pendingAt[k]
		return ok
	}
	if _, ok := g.addBuf[k]; ok {
		return true
	}
	if _, ok := g.delBuf[k]; ok {
		return false
	}
	return int(k.from) < g.csrBase.n && g.csrBase.HasEdge(int(k.from), k.label, int(k.to))
}

// AddEdge inserts the labeled edge (from, label, to). Parallel edges with
// different labels are allowed; inserting the exact same edge twice is a
// no-op, matching the set semantics E ⊆ V×Σ×V of the paper. It panics
// when an endpoint is not a vertex.
//
// On a frozen graph the insertion is recorded in the delta, so the
// next Freeze merges it into the base instead of rebuilding (see
// delta.go). The cached acyclicity verdict is kept when it cannot
// change: an edge added to a cyclic graph leaves it cyclic, and a
// self-loop makes any graph cyclic; only an acyclic graph gaining a
// non-loop edge needs revalidation (deferred to the next IsAcyclic).
func (g *Graph) AddEdge(from int, label byte, to int) {
	if !g.inRange(from, to) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %q, %d) outside [0, %d)", from, label, to, g.n))
	}
	k := edgeKey{from: int32(from), to: int32(to), label: label}
	if g.has(k) {
		return
	}
	g.invalidate()
	switch {
	case g.csrBase == nil:
		if g.pendingAt == nil {
			g.pendingAt = make(map[edgeKey]int32)
		}
		g.pendingAt[k] = int32(len(g.pending))
		g.pending = append(g.pending, k)
	case deleteKey(g.delBuf, k):
		// re-adding a tombstoned base edge
	default:
		if g.addBuf == nil {
			g.addBuf = make(map[edgeKey]struct{})
		}
		g.addBuf[k] = struct{}{}
		if g.csrBase.labelID[label] < 0 {
			// Sticky until the next freeze resets the delta: pinning
			// an overlay view checks this flag instead of rescanning
			// the whole add buffer for out-of-alphabet labels.
			g.deltaNewLabel = true
		}
	}
	g.edges++
	g.labelCount[label]++
	switch {
	case from == to:
		g.acyclic = 2
	case g.acyclic == 1:
		g.acyclic = 0
	}
}

// RemoveEdge deletes the labeled edge (from, label, to) and reports
// whether it was present; removing a missing edge (including one with
// out-of-range endpoints) is a no-op returning false, and does not
// advance the epoch.
//
// On a frozen graph the removal is recorded as a tombstone in the
// delta, so the next Freeze merges it into the base instead of
// rebuilding (see delta.go). The cached acyclicity verdict is kept
// when it cannot change: removing an edge from an acyclic graph leaves
// it acyclic; only a cyclic graph losing an edge needs revalidation
// (deferred to the next IsAcyclic).
func (g *Graph) RemoveEdge(from int, label byte, to int) bool {
	if !g.inRange(from, to) {
		return false
	}
	k := edgeKey{from: int32(from), to: int32(to), label: label}
	if !g.has(k) {
		// Absent edge: bail out before the delta bookkeeping below, so a
		// removal that cannot cancel anything never records a tombstone —
		// delBuf stays a subset of the base (the merge and overlay paths
		// rely on that invariant) and cannot accumulate dead entries.
		return false
	}
	g.invalidate()
	switch {
	case g.csrBase == nil:
		// Swap-remove: the list order only feeds the first build, which
		// sorts every bucket anyway.
		i := g.pendingAt[k]
		last := g.pending[len(g.pending)-1]
		g.pending[i] = last
		g.pendingAt[last] = i
		g.pending = g.pending[:len(g.pending)-1]
		delete(g.pendingAt, k)
	case deleteKey(g.addBuf, k):
		// the edge never made it into the base
	default:
		if g.delBuf == nil {
			g.delBuf = make(map[edgeKey]struct{})
		}
		g.delBuf[k] = struct{}{}
	}
	g.edges--
	g.labelCount[label]--
	if g.acyclic == 2 {
		g.acyclic = 0
	}
	return true
}

// deleteKey deletes k from set and reports whether it was there.
func deleteKey(set map[edgeKey]struct{}, k edgeKey) bool {
	if _, ok := set[k]; !ok {
		return false
	}
	delete(set, k)
	return true
}

// AddWordEdge inserts a path of fresh intermediate vertices spelling the
// word w from `from` to `to`, implementing the paper's convention that
// "an edge labeled by a word w can be replaced with a path whose edges
// form the word w" (proof of Lemma 5). It returns the intermediate
// vertices created. Empty words are rejected.
func (g *Graph) AddWordEdge(from int, w string, to int) ([]int, error) {
	if w == "" {
		return nil, fmt.Errorf("graph: AddWordEdge requires a non-empty word")
	}
	var mids []int
	cur := from
	for i := 0; i < len(w); i++ {
		next := to
		if i < len(w)-1 {
			next = g.AddVertex()
			mids = append(mids, next)
		}
		g.AddEdge(cur, w[i], next)
		cur = next
	}
	return mids, nil
}

// OutEdges returns the edges leaving v, ordered by label then target.
// It reads the pinned view (freezing a never-frozen graph first) and
// returns a fresh slice.
func (g *Graph) OutEdges(v int) []Edge {
	vw := g.PinView()
	var es []Edge
	for lid := 0; lid < vw.NumLabels(); lid++ {
		for _, to := range vw.OutWithID(v, lid) {
			es = append(es, Edge{From: v, Label: vw.Label(lid), To: int(to)})
		}
	}
	return es
}

// InEdges returns the edges entering v, ordered by label then source.
// It reads the pinned view (freezing a never-frozen graph first) and
// returns a fresh slice.
func (g *Graph) InEdges(v int) []Edge {
	vw := g.PinView()
	var es []Edge
	for lid := 0; lid < vw.NumLabels(); lid++ {
		for _, from := range vw.InWithID(v, lid) {
			es = append(es, Edge{From: int(from), Label: vw.Label(lid), To: v})
		}
	}
	return es
}

// HasEdge reports whether the exact edge exists; an endpoint that is
// not a vertex makes it false.
func (g *Graph) HasEdge(from int, label byte, to int) bool {
	return g.inRange(from, to) && g.has(edgeKey{from: int32(from), to: int32(to), label: label})
}

// Alphabet returns the set of labels used by the graph's edges. The
// result is derived from per-label edge counts maintained by AddEdge /
// RemoveEdge, so recomputing it after a mutation is O(256) rather than
// an O(E) rescan; it is cached until the next mutation. The returned
// slice must not be modified.
func (g *Graph) Alphabet() automaton.Alphabet {
	if g.alphaValid {
		return g.alpha
	}
	var labels []byte
	for b, c := range g.labelCount {
		if c > 0 {
			labels = append(labels, byte(b))
		}
	}
	g.alpha = automaton.NewAlphabet(labels...)
	g.alphaValid = true
	return g.alpha
}

// Edges returns all edges in deterministic order: by source, then
// target, then label.
func (g *Graph) Edges() []Edge {
	ks := g.liveEdges()
	out := make([]Edge, len(ks))
	for i, k := range ks {
		out[i] = k.edge()
	}
	slices.SortFunc(out, func(a, b Edge) int {
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		if a.To != b.To {
			return cmp.Compare(a.To, b.To)
		}
		return cmp.Compare(a.Label, b.Label)
	})
	return out
}

// liveEdges lists the current edge set in no particular order: the
// pending list of a never-frozen graph (aliased, not copied), else the
// base minus its tombstones plus the added edges.
func (g *Graph) liveEdges() []edgeKey {
	base := g.csrBase
	if base == nil {
		return g.pending
	}
	es := make([]edgeKey, 0, g.edges)
	L := len(base.labels)
	for v := 0; v < base.n; v++ {
		for lid := 0; lid < L; lid++ {
			for _, to := range base.OutWithID(v, lid) {
				k := edgeKey{from: int32(v), to: to, label: base.labels[lid]}
				if len(g.delBuf) > 0 {
					if _, gone := g.delBuf[k]; gone {
						continue
					}
				}
				es = append(es, k)
			}
		}
	}
	for k := range g.addBuf {
		es = append(es, k)
	}
	return es
}

// IsAcyclic reports whether the graph is a DAG (ignoring labels). The
// verdict is cached, and a mutation drops it only when it could
// actually flip: adding a non-loop edge to an acyclic graph, or
// removing an edge from a cyclic one. All other mutations (isolated
// vertices, edges added to an already-cyclic graph, edges removed from
// an acyclic one, self-loops — which decide the verdict outright) keep
// or refine the cached answer, so streaming workloads rarely pay the
// O(V+E) recheck.
func (g *Graph) IsAcyclic() bool {
	if g.acyclic != 0 {
		return g.acyclic == 1
	}
	acyclic := len(g.TopoOrder()) == g.n
	if acyclic {
		g.acyclic = 1
	} else {
		g.acyclic = 2
	}
	return acyclic
}

// TopoOrder returns a topological order of a DAG, or nil if the graph has
// a cycle. It reads the pinned view (Kahn's algorithm over the base plus
// the delta).
func (g *Graph) TopoOrder() []int {
	vw := g.PinView()
	n, L := vw.NumVertices(), vw.NumLabels()
	indeg := make([]int, n)
	var queue []int
	for v := 0; v < n; v++ {
		if indeg[v] = vw.InDegree(v); indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for lid := 0; lid < L; lid++ {
			for _, to := range vw.OutWithID(v, lid) {
				indeg[to]--
				if indeg[to] == 0 {
					queue = append(queue, int(to))
				}
			}
		}
	}
	if len(order) != n {
		return nil
	}
	return order
}

// String renders a compact description.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %s -%c-> %s\n", g.Name(e.From), e.Label, g.Name(e.To))
	}
	return b.String()
}
