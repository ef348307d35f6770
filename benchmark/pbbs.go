package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/geom"
)

// pbbsHeader opens a pbbsbench 2-d point file: the header line, then one
// "x y" line per point. The SoCG'21 closest-pair implementations
// (SNIPPETS.md §3) read this format, so -dump-points lets them run on the
// points this benchmark measured.
const pbbsHeader = "pbbs_sequencePoint2d"

func writePBBS(w io.Writer, pts []geom.Point) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, pbbsHeader)
	for _, p := range pts {
		// 'g' with precision -1 round-trips a float64 exactly.
		bw.WriteString(strconv.FormatFloat(p.X, 'g', -1, 64))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatFloat(p.Y, 'g', -1, 64))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func readPBBS(r io.Reader) ([]geom.Point, error) {
	br := bufio.NewReader(r)
	var header string
	if _, err := fmt.Fscan(br, &header); err != nil {
		return nil, fmt.Errorf("pbbs: read header: %w", err)
	}
	if header != pbbsHeader {
		return nil, fmt.Errorf("pbbs: header %q, want %q", header, pbbsHeader)
	}
	var pts []geom.Point
	for {
		var p geom.Point
		_, err := fmt.Fscan(br, &p.X, &p.Y)
		if err == io.EOF {
			return pts, nil
		}
		if err != nil {
			return nil, fmt.Errorf("pbbs: point %d: %w", len(pts), err)
		}
		pts = append(pts, p)
	}
}

// dumpPoints writes every workload's inputs for the seed, instance by
// instance, as <dir>/<workload>-<instance>-{P,Q}.pbbs.
func dumpPoints(dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		for j := 0; j < instances; j++ {
			in := makeInputs(w, seed, j, 0)
			for i, pts := range [][]geom.Point{in.p, in.q} {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d-%c.pbbs", w.name, j, "PQ"[i]))
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := writePBBS(f, pts); err != nil {
					f.Close()
					return fmt.Errorf("%s: %w", path, err)
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("%s  %d points  inputs %s\n", path, len(pts), in.hash)
			}
		}
	}
	return nil
}

// dcSelfCP is the textbook divide-and-conquer closest pair on a flat array
// (the planar algorithm Pereira & Lobo optimise): sort by x, split, recurse,
// then scan the y-sorted strip around the split line. It is the floor.*
// reference — what the same points cost with no pages, no tree and no
// buffer — and returns the distance between the two closest distinct
// array slots.
func dcSelfCP(pts []geom.Point) float64 {
	if len(pts) < 2 {
		return math.Inf(1)
	}
	xs := append([]geom.Point(nil), pts...)
	sort.Slice(xs, func(i, j int) bool { return xs[i].X < xs[j].X })
	return math.Sqrt(dcRec(xs, make([]geom.Point, len(xs))))
}

// dcRec returns the smallest squared distance within xs (sorted by x on
// entry, sorted by y on return); tmp is merge scratch of the same length.
func dcRec(xs, tmp []geom.Point) float64 {
	if len(xs) <= 3 {
		best := math.Inf(1)
		for i := range xs {
			for j := i + 1; j < len(xs); j++ {
				best = math.Min(best, distSq(xs[i], xs[j]))
			}
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i].Y < xs[j].Y })
		return best
	}
	mid := len(xs) / 2
	midX := xs[mid].X
	best := math.Min(dcRec(xs[:mid], tmp[:mid]), dcRec(xs[mid:], tmp[mid:]))
	// Merge the two y-sorted halves.
	i, j := 0, mid
	for k := range tmp {
		if j >= len(xs) || (i < mid && xs[i].Y <= xs[j].Y) {
			tmp[k] = xs[i]
			i++
		} else {
			tmp[k] = xs[j]
			j++
		}
	}
	copy(xs, tmp)
	// Strip: points within sqrt(best) of the split line, in y order; each
	// needs comparing only with followers less than sqrt(best) above it.
	strip := tmp[:0]
	for _, p := range xs {
		if dx := p.X - midX; dx*dx < best {
			strip = append(strip, p)
		}
	}
	for i := range strip {
		for j := i + 1; j < len(strip); j++ {
			dy := strip[j].Y - strip[i].Y
			if dy*dy >= best {
				break
			}
			best = math.Min(best, distSq(strip[i], strip[j]))
		}
	}
	return best
}
