package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestLatHistQuantiles(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h latHist
	var xs []float64
	for i := 0; i < 100000; i++ {
		ns := int64(math.Exp(r.NormFloat64()*1.5 + 10)) // ~22µs, wide spread
		h.observe(time.Duration(ns))
		xs = append(xs, float64(ns)/1e3)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := xs[int(q*float64(len(xs)))]
		if got := h.quantileUs(q); math.Abs(got-want)/want > 0.005 {
			t.Errorf("q%.2f = %.3f µs, exact %.3f µs", q, got, want)
		}
	}
	for _, ns := range []int64{0, 1, 255, 256, 257, 511, 512, 1023, 1 << 20, 123456789} {
		idx, lo, width := latBucket(ns)
		blo, bw := bucketBounds(idx)
		if blo != lo || bw != width || float64(ns) < lo || float64(ns) >= lo+width {
			t.Errorf("%d ns: bucket %d [%g,+%g), inverse [%g,+%g)", ns, idx, lo, width, blo, bw)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replay", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "load", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "compile", StartNs: 30, EndNs: 50}, // overlaps load by 10
		{ID: 4, Parent: 2, Name: "parse", StartNs: 15, EndNs: 25},
	}
	got := selfTimes(spans)
	want := map[string]int64{"replay": 60, "load": 20, "compile": 20, "parse": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestDriveSlices(t *testing.T) {
	var edges []bool
	step := func(c int, tl *tally, tr bool) {
		tl.attempted++
		tl.pairs++
		tl.reads.observe(time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	w, err := drive(2, repeat(step, 3), 4, true, step, func(begin bool) error {
		edges = append(edges, begin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.slices) != 4 || w.slices[0].traced || !w.slices[1].traced || w.slices[2].traced || !w.slices[3].traced {
		t.Fatalf("%d slices, want untraced and traced alternating over 4", len(w.slices))
	}
	if len(edges) != 4 || !edges[0] || edges[1] || !edges[2] || edges[3] {
		t.Fatalf("edge calls %v, want begin/end around each traced slice", edges)
	}
	if w.warm.attempted != 6 {
		t.Errorf("warm-up ran %d steps, want 6", w.warm.attempted)
	}
	var sum int64
	for _, sl := range w.slices {
		if sl.t.pairs == 0 || sl.elapsed < 900*time.Millisecond {
			t.Errorf("slice with %d ops over %v", sl.t.pairs, sl.elapsed)
		}
		sum += sl.t.pairs
	}
	if sum != w.phase[untraced].pairs+w.phase[traced].pairs {
		t.Errorf("pooled phases lost operations")
	}
}
