package geom

import (
	"math/rand"
	"testing"
)

func benchRects(n int) ([]Rect, []Rect) {
	rng := rand.New(rand.NewSource(1))
	a := make([]Rect, n)
	b := make([]Rect, n)
	for i := 0; i < n; i++ {
		a[i] = randRect(rng, 10)
		b[i] = randRect(rng, 10)
	}
	return a, b
}

func BenchmarkMinMinDistSq(bb *testing.B) {
	a, b := benchRects(1024)
	m := L2()
	bb.ResetTimer()
	var sink float64
	for i := 0; i < bb.N; i++ {
		sink += m.MinMinKey(a[i%1024], b[i%1024])
	}
	_ = sink
}

func BenchmarkMinMaxDistSq(bb *testing.B) {
	a, b := benchRects(1024)
	m := L2()
	bb.ResetTimer()
	var sink float64
	for i := 0; i < bb.N; i++ {
		sink += m.MinMaxKey(a[i%1024], b[i%1024])
	}
	_ = sink
}

func BenchmarkMaxMaxDistSq(bb *testing.B) {
	a, b := benchRects(1024)
	m := L2()
	bb.ResetTimer()
	var sink float64
	for i := 0; i < bb.N; i++ {
		sink += m.MaxMaxKey(a[i%1024], b[i%1024])
	}
	_ = sink
}

func BenchmarkMetricMinMinKeyL1(bb *testing.B) {
	a, b := benchRects(1024)
	m := L1()
	bb.ResetTimer()
	var sink float64
	for i := 0; i < bb.N; i++ {
		sink += m.MinMinKey(a[i%1024], b[i%1024])
	}
	_ = sink
}
