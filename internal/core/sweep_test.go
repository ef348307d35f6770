package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// scanLeavesBrute is the paper's CP3 — evaluate all n*m entry pairs of two
// leaves — and the oracle the plane sweep is held to.
func scanLeavesBrute(m geom.Metric, as, bs []rtree.Entry, kh *kHeap) {
	for i := range as {
		ea := &as[i]
		for t := range bs {
			eb := &bs[t]
			d := m.MinMinKey(ea.Rect, eb.Rect)
			if !kh.wouldAccept(d) {
				continue
			}
			kh.offer(kPair{
				distSq: d,
				p:      [2]float64{ea.Rect.Min.X, ea.Rect.Min.Y},
				q:      [2]float64{eb.Rect.Min.X, eb.Rect.Min.Y},
				refP:   ea.Ref,
				refQ:   eb.Ref,
			})
		}
	}
}

// checkSweepLeaf runs scanLeavesSweep and the brute oracle over the two
// leaves and compares the K-heaps in (distSq, refP, refQ) order.
// The sweep's contract is about the pairs within extBound: each of those
// that belongs to the brute top K must be in the sweep's heap and nothing
// else within extBound may be, so both heaps are cut at extBound first.
// The sweep must also never evaluate more than the n*m pairs of the brute
// scan.
func checkSweepLeaf(t *testing.T, m geom.Metric, as, bs []rtree.Entry, k int, extBound float64) {
	t.Helper()
	want := newKHeap(k)
	scanLeavesBrute(m, as, bs, want)

	// The sweep orders its leaves in place: it gets copies.
	j := &join{metric: m}
	got := newKHeap(k)
	na, nb := rtree.Node{Entries: slices.Clone(as)}, rtree.Node{Entries: slices.Clone(bs)}
	j.scanLeavesSweep(&na, &nb, got, extBound)

	if c := j.stats.pointPairsCompared.Load(); c > int64(len(as)*len(bs)) {
		t.Fatalf("sweep compared %d pairs of %d x %d leaves", c, len(as), len(bs))
	}

	// as and bs arrive in whatever order the caller built them — a page the
	// scan has to order itself. The same leaves as the writer would have
	// stored them must give the same heap for the same number of pairs.
	jw := &join{metric: m}
	stored := newKHeap(k)
	wa, wb := rtree.Node{Entries: slices.Clone(as)}, rtree.Node{Entries: slices.Clone(bs)}
	rtree.OrderLeaf(wa.Entries)
	rtree.OrderLeaf(wb.Entries)
	jw.scanLeavesSweep(&wa, &wb, stored, extBound)
	if jw.stats.pointPairsCompared.Load() != j.stats.pointPairsCompared.Load() ||
		!slices.Equal(stored.sort(), got.sort()) {
		t.Fatalf("k=%d ext=%g: scan of writer-ordered leaves (%d pairs compared) differs from scan of the same leaves unordered (%d)",
			k, extBound, jw.stats.pointPairsCompared.Load(), j.stats.pointPairsCompared.Load())
	}
	within := func(h *kHeap) []kPair {
		ps := h.sort()
		n := 0
		for n < len(ps) && ps[n].distSq <= extBound {
			n++
		}
		return ps[:n]
	}
	gs, ws := within(got), within(want)
	if len(gs) != len(ws) {
		t.Fatalf("k=%d ext=%g: sweep kept %d pairs within the bound, brute %d", k, extBound, len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("k=%d ext=%g pair %d: sweep %+v, brute %+v", k, extBound, i, gs[i], ws[i])
		}
	}
}

func pointEntries(pts []geom.Point) []rtree.Entry {
	es := make([]rtree.Entry, len(pts))
	for i, p := range pts {
		es[i] = rtree.Entry{Rect: geom.Rect{Min: p, Max: p}, Ref: int64(i)}
	}
	return es
}

// rectEntries grows every second point into a small rectangle, so the
// sweep's gap runs from an anchor's high x and its order from the low x.
func rectEntries(pts []geom.Point) []rtree.Entry {
	es := pointEntries(pts)
	for i := 1; i < len(es); i += 2 {
		es[i].Rect.Max = es[i].Rect.Max.Add(0.03*float64(i%5), 0.02*float64(i%3))
	}
	return es
}

// sweepKs are the K of the leaf-scan tests against an n x m leaf pair: one
// result, a partly filled threshold, and a heap the pair cannot fill.
func sweepKs(n, m int) []int { return []int{1, 7, n*m + 3} }

// TestSweepBruteEquivalence holds the leaf scan to the brute oracle on two
// decoded leaves: point and rectangle entries, runs of equal x (where the
// anchor choice and the sort order are ties), for every K regime, under an
// infinite external bound and under finite ones down to zero.
func TestSweepBruteEquivalence(t *testing.T) {
	quantize := func(pts []geom.Point) []geom.Point { // 8 distinct x, many duplicate pairs
		out := make([]geom.Point, len(pts))
		for i, p := range pts {
			out[i] = geom.Point{X: math.Floor(p.X*8) / 8, Y: math.Floor(p.Y*16) / 16}
		}
		return out
	}
	ps, qs := dataset.Uniform(7, 21), dataset.Uniform(8, 17)
	cs, ds := dataset.Clustered(9, 21), dataset.Clustered(10, 19)
	cases := []struct {
		name   string
		as, bs []rtree.Entry
	}{
		{"points", pointEntries(ps), pointEntries(qs)},
		{"clustered", pointEntries(cs), pointEntries(ds)},
		{"rects", rectEntries(ps), rectEntries(qs)},
		{"duplicate-x", pointEntries(quantize(ps)), pointEntries(quantize(qs))},
		{"same-leaf", pointEntries(ps), pointEntries(ps)},
		{"one-entry", pointEntries(ps[:1]), pointEntries(qs)},
		{"empty", nil, pointEntries(qs)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, k := range sweepKs(len(c.as), len(c.bs)) {
				for _, ext := range []float64{math.Inf(1), 0.25, 0.01, 1e-4, 0} {
					checkSweepLeaf(t, geom.L2(), c.as, c.bs, k, ext)
				}
			}
		})
	}
}

// TestSweepMetrics exercises the sweep's x-gap pruning key under every
// supported metric (the key is metric-dependent: d^2 for L2, d for L1/Linf,
// d^p for general Lp), including the boundary the break must not cross: a
// pair whose x gap alone equals the pruning distance is still a result.
func TestSweepMetrics(t *testing.T) {
	l3, err := geom.Lp(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, m := range []geom.Metric{geom.L2(), geom.L1(), geom.LInf(), l3} {
		// gap == T: the two entries differ in x only, by exactly the
		// distance whose key is the external bound, behind a nearer entry
		// that must not end the band early.
		as := pointEntries([]geom.Point{{X: 0, Y: 0}, {X: 0.25, Y: 3}})
		bs := pointEntries([]geom.Point{{X: 0.5, Y: 0}, {X: 2, Y: 0}})
		T := m.DistToKey(0.5)
		for _, k := range sweepKs(len(as), len(bs)) {
			checkSweepLeaf(t, m, as, bs, k, T)
			checkSweepLeaf(t, m, bs, as, k, T)
		}

		for round := 0; round < 20; round++ {
			as := rectEntries(dataset.Uniform(rng.Int63(), 1+rng.Intn(21)))
			bs := pointEntries(dataset.Uniform(rng.Int63(), 1+rng.Intn(21)))
			for _, k := range sweepKs(len(as), len(bs)) {
				for _, ext := range []float64{math.Inf(1), m.DistToKey(0.3), m.DistToKey(0.02)} {
					checkSweepLeaf(t, m, as, bs, k, ext)
				}
			}
		}
	}
}

// TestSweepParallelEquivalence runs the sweep under the parallel HEAP
// engine, where each worker's join offers into its own heap under its own
// bound: same pairs as the brute-force oracle.
func TestSweepParallelEquivalence(t *testing.T) {
	ps := dataset.Uniform(21, 900)
	qs := dataset.Uniform(22, 800)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, k := range []int{1, 25, 100} {
		want := BruteForceKCPMetric(ps, qs, k, geom.L2())
		opts := DefaultOptions(Heap)
		opts.Parallelism = 4
		got, _, err := KClosestPairs(ta, tb, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("k=%d pair %d: dist %.17g, want %.17g", k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// FuzzSweepLeafScan decodes two leaves, K, a metric and an external bound
// from the input and holds the sweep to the brute oracle. Coordinates are
// multiples of 1/16, so equal x, zero gaps and exact distance ties are
// common rather than measure-zero.
func FuzzSweepLeafScan(f *testing.F) {
	l3, err := geom.Lp(3)
	if err != nil {
		f.Fatal(err)
	}
	metrics := []geom.Metric{geom.L2(), geom.L1(), geom.LInf(), l3}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		m := metrics[int(data[0])%len(metrics)]
		k := 1 + int(data[1])
		ext := math.Inf(1)
		if data[2] != 0 {
			ext = m.DistToKey(float64(data[2]) / 64)
		}
		// Three bytes an entry: x, y, and the extents of a rectangle (two
		// nibbles, both zero for a point). The leaves take turns.
		var leaves [2][]rtree.Entry
		for i, rest := 0, data[3:]; len(rest) >= 3 && i < 2*21; i, rest = i+1, rest[3:] {
			min := geom.Point{X: float64(rest[0]) / 16, Y: float64(rest[1]) / 16}
			max := min.Add(float64(rest[2]>>4)/16, float64(rest[2]&15)/16)
			leaves[i%2] = append(leaves[i%2], rtree.Entry{Rect: geom.Rect{Min: min, Max: max}, Ref: int64(i / 2)})
		}
		checkSweepLeaf(t, m, leaves[0], leaves[1], k, ext)
	})
}

// BenchmarkSweepLeafScan is one leaf-pair visit, decode excluded: copy two
// 14-entry leaves into the frame (as a page read leaves them) and scan them
// at K = 100 under a bound that keeps a tenth of the band. "ordered" is a
// page the writer stored, where ordering costs the verifying pass;
// "unordered" is a page from before the leaf order, sorted on every visit.
func BenchmarkSweepLeafScan(b *testing.B) {
	as, bs := pointEntries(dataset.Uniform(71, 14)), pointEntries(dataset.Uniform(72, 14))
	for _, c := range []struct {
		name    string
		ordered bool
	}{{"ordered", true}, {"unordered", false}} {
		b.Run(c.name, func(b *testing.B) {
			as, bs := slices.Clone(as), slices.Clone(bs)
			if c.ordered {
				rtree.OrderLeaf(as)
				rtree.OrderLeaf(bs)
			} else if rtree.LeafOrdered(as) || rtree.LeafOrdered(bs) {
				b.Fatal("the unordered case is ordered")
			}
			j := &join{metric: geom.L2()}
			kh := newKHeap(100)
			var na, nb rtree.Node
			visit := func() {
				na.Entries = append(na.Entries[:0], as...)
				nb.Entries = append(nb.Entries[:0], bs...)
				kh.reset()
				j.scanLeavesSweep(&na, &nb, kh, 0.01)
			}
			visit()
			if allocs := testing.AllocsPerRun(100, visit); allocs != 0 {
				b.Fatalf("a warm leaf scan allocates %v per visit, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				visit()
			}
		})
	}
}
