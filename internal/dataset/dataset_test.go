package dataset

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

func TestUniformDeterministicAndInRange(t *testing.T) {
	a := Uniform(42, 1000)
	b := Uniform(42, 1000)
	if len(a) != 1000 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("Uniform is not deterministic")
		}
		if a[i].X < 0 || a[i].X >= 1 || a[i].Y < 0 || a[i].Y >= 1 {
			t.Fatalf("point %v outside unit workspace", a[i])
		}
	}
	c := Uniform(43, 1000)
	same := 0
	for i := range a {
		if a[i].Equal(c[i]) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds produced %d identical points", same)
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	pts := Uniform(7, 40000)
	// 4x4 grid cells should each hold ~1/16 of the mass.
	var cells [16]int
	for _, p := range pts {
		cx := int(p.X * 4)
		cy := int(p.Y * 4)
		cells[cy*4+cx]++
	}
	for i, c := range cells {
		frac := float64(c) / 40000
		if math.Abs(frac-1.0/16) > 0.01 {
			t.Errorf("cell %d holds fraction %.4f, want ~0.0625", i, frac)
		}
	}
}

func TestClusteredDeterministicAndInRange(t *testing.T) {
	a := Clustered(1, 5000)
	b := Clustered(1, 5000)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("Clustered is not deterministic")
		}
		if a[i].X < 0 || a[i].X >= 1 || a[i].Y < 0 || a[i].Y >= 1 {
			t.Fatalf("point %v outside unit workspace", a[i])
		}
	}
}

func TestClusteredIsSkewed(t *testing.T) {
	// The clustered set must be far from uniform: measured on a 16x16
	// grid, the most populated cells should hold a large multiple of the
	// uniform share, and many cells should be (nearly) empty.
	pts := Clustered(2, 30000)
	var cells [256]int
	for _, p := range pts {
		cx := int(p.X * 16)
		cy := int(p.Y * 16)
		cells[cy*16+cx]++
	}
	uniformShare := 30000 / 256
	maxCell, empty := 0, 0
	for _, c := range cells {
		if c > maxCell {
			maxCell = c
		}
		if c < uniformShare/10 {
			empty++
		}
	}
	if maxCell < 4*uniformShare {
		t.Errorf("max cell %d not clustered enough (uniform share %d)", maxCell, uniformShare)
	}
	if empty < 50 {
		t.Errorf("only %d near-empty cells; data not skewed enough", empty)
	}
}

func TestRealCardinality(t *testing.T) {
	r := Real()
	if len(r) != RealCardinality {
		t.Fatalf("Real() has %d points, want %d", len(r), RealCardinality)
	}
	// Must be stable across calls (fixed seed).
	r2 := Real()
	for i := range r {
		if !r[i].Equal(r2[i]) {
			t.Fatal("Real() is not deterministic")
		}
	}
}

func TestPlaceWithOverlap(t *testing.T) {
	pts := Uniform(3, 2000)
	for _, portion := range []float64{0, 0.25, 0.5, 1.0} {
		placed, err := PlaceWithOverlap(pts, portion)
		if err != nil {
			t.Fatal(err)
		}
		// The placed workspace is [1-portion, 2-portion) x [0,1): overlap
		// with [0,1)^2 has width exactly `portion`.
		ws := geom.Rect{
			Min: geom.Point{X: 1 - portion, Y: 0},
			Max: geom.Point{X: 2 - portion, Y: 1},
		}
		unit := geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 1, Y: 1}}
		if got := ws.OverlapArea(unit); math.Abs(got-portion) > 1e-12 {
			t.Errorf("portion %g: workspace overlap area = %g", portion, got)
		}
		for i, p := range placed {
			if !ws.Contains(p.Rect()) {
				t.Fatalf("portion %g: point %v outside workspace %v", portion, p, ws)
			}
			if math.Abs(p.Y-pts[i].Y) > 0 {
				t.Fatal("placement must only slide along x")
			}
		}
	}
	if _, err := PlaceWithOverlap(pts, -0.1); err == nil {
		t.Error("negative portion must fail")
	}
	if _, err := PlaceWithOverlap(pts, 1.1); err == nil {
		t.Error("portion > 1 must fail")
	}
	if _, err := PlaceWithOverlap(pts, math.NaN()); err == nil {
		t.Error("NaN portion must fail")
	}
}

func TestOverlapSchedules(t *testing.T) {
	for _, o := range append(Overlaps(), OverlapSweep()...) {
		if o < 0 || o > 1 {
			t.Errorf("schedule overlap %g out of range", o)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := Uniform(4, 500)
	var buf bytes.Buffer
	if err := WritePoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPoints(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("round trip lost points: %d vs %d", len(got), len(pts))
	}
	for i := range pts {
		if !got[i].Equal(pts[i]) {
			t.Fatalf("point %d: %v != %v", i, got[i], pts[i])
		}
	}
}

func TestCSVComments(t *testing.T) {
	in := "# header\n\n 1.5 , 2.5 \n3,4\n"
	got, err := ReadPoints(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Equal(geom.Point{X: 1.5, Y: 2.5}) || !got[1].Equal(geom.Point{X: 3, Y: 4}) {
		t.Fatalf("parsed %v", got)
	}
}

func TestCSVErrors(t *testing.T) {
	for _, in := range []string{"nocomma\n", "x,1\n", "1,y\n"} {
		if _, err := ReadPoints(bytes.NewBufferString(in)); err == nil {
			t.Errorf("input %q must fail", in)
		}
	}
}

func TestSaveLoadPoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pts.csv")
	pts := Clustered(5, 200)
	if err := SavePoints(path, pts); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPoints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("loaded %d, want %d", len(got), len(pts))
	}
	for i := range pts {
		if !got[i].Equal(pts[i]) {
			t.Fatalf("point %d differs", i)
		}
	}
	if _, err := LoadPoints(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file must fail")
	}
}
