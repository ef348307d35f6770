package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// SelfKClosestPairs answers the self-CPQ of the paper's future-work
// section (Section 6): both data sets are the same entity (P ≡ Q), and the
// result is the K closest unordered pairs of distinct points of one tree.
//
// The traversal is the iterative Heap algorithm over unordered node pairs:
// a pair (N, N) expands to child pairs (c_i, c_j) with i <= j, and a pair
// of distinct nodes to all child combinations, so every unordered point
// pair is considered exactly once. A self join is by definition fully
// overlapping, the regime where the paper found HEAP strongest.
//
// SelfKClosestPairs is the non-cancellable shim over
// SelfKClosestPairsContext.
func SelfKClosestPairs(t *rtree.Tree, k int, opts Options) ([]Pair, Stats, error) {
	return SelfKClosestPairsContext(context.Background(), t, k, opts)
}

// SelfKClosestPairsContext is SelfKClosestPairs under a context; see
// KClosestPairsContext for the cancellation contract.
func SelfKClosestPairsContext(ctx context.Context, t *rtree.Tree, k int, opts Options) ([]Pair, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if err := opts.validate(); err != nil {
		return nil, Stats{}, err
	}
	if t.Len() < 2 {
		return nil, Stats{}, errors.New("core: self closest pair query needs at least two points")
	}
	start := t.Pool().Stats()
	sc := acquireScratch()
	defer releaseScratch(sc)
	sc.kheap.init(k)
	s := &selfJoin{
		t:      t,
		k:      k,
		sc:     sc,
		kheap:  &sc.kheap,
		bound:  math.Inf(1),
		opts:   opts,
		m:      float64(t.Config().MinEntries),
		metric: opts.Metric,
	}
	rootRect, err := rootMBR(t, &sc.frame(0).na)
	if err != nil {
		return nil, Stats{}, err
	}
	s.rootArea = rootRect.Area()
	if err := s.run(ctx); err != nil {
		return nil, Stats{}, err
	}
	s.stats.IOP = t.Pool().Stats().Sub(start)
	return s.kheap.results(s.metric), s.stats, nil
}

// SelfClosestPair returns the single closest pair of distinct points
// within one tree.
//
// SelfClosestPair is the non-cancellable shim over SelfClosestPairContext.
func SelfClosestPair(t *rtree.Tree, opts Options) (Pair, Stats, error) {
	return SelfClosestPairContext(context.Background(), t, opts)
}

// SelfClosestPairContext is SelfClosestPair under a context; see
// KClosestPairsContext for the cancellation contract.
func SelfClosestPairContext(ctx context.Context, t *rtree.Tree, opts Options) (Pair, Stats, error) {
	pairs, stats, err := SelfKClosestPairsContext(ctx, t, 1, opts)
	if err != nil {
		return Pair{}, stats, err
	}
	return pairs[0], stats, nil
}

type selfJoin struct {
	t        *rtree.Tree
	k        int
	sc       *queryScratch // held for the whole query; kheap lives in it
	kheap    *kHeap
	bound    float64
	opts     Options
	stats    Stats
	rootArea float64
	m        float64
	metric   geom.Metric
	cancel   cancelGate
}

func (s *selfJoin) T() float64 { return math.Min(s.kheap.threshold(), s.bound) }

func (s *selfJoin) run(ctx context.Context) error {
	h := &s.sc.queue
	h.reset()
	top := int32(s.t.Height() - 1)
	h.push(nodePair{a: s.t.RootID(), b: s.t.RootID(), la: top, lb: top})
	for h.Len() > 0 {
		if err := s.cancel.poll(ctx); err != nil {
			return err
		}
		if h.Len() > s.stats.MaxQueueSize {
			s.stats.MaxQueueSize = h.Len()
		}
		p := h.pop()
		if p.minminSq > s.T() {
			break
		}
		if err := s.process(p, h); err != nil {
			return err
		}
	}
	return nil
}

// selfCount is one sub-pair's term of the K > 1 prefix rule: its
// MAXMAXDIST key and the number of point pairs it is guaranteed to hold.
type selfCount struct {
	maxmaxSq float64
	count    float64
}

// process reads the pair's node(s) into the scratch frame, scans leaves,
// or generates the unordered sub-pairs — (c_i, c_t) with i <= t under one
// node, all combinations under two — tightens the bound from their MBR
// metrics and queues the ones within it.
func (s *selfJoin) process(p nodePair, h *pairHeap) error {
	f := s.sc.frame(0)
	na, nb := &f.na, &f.na
	if err := s.t.ReadNodeInto(p.a, na); err != nil {
		return err
	}
	if p.b != p.a {
		nb = &f.nb
		if err := s.t.ReadNodeInto(p.b, nb); err != nil {
			return err
		}
	}
	s.stats.NodePairsProcessed++

	if na.IsLeaf() {
		s.scan(na, nb)
		return nil
	}

	// The bound rules need each sub-pair's two rectangles, which the
	// queued pairs do not carry, so they are evaluated here, while the
	// entries are in hand. K = 1: only pairs of distinct nodes may apply
	// Inequality 2 (for an identical pair the guaranteed point pair could
	// be a single point against itself). K > 1: the MAXMAXDIST prefix rule
	// counts unordered pairs, n*(n-1)/2 within an identical pair.
	level := int32(na.Level - 1)
	pts := math.Pow(s.m, float64(level+1))
	prefixRule := s.k > 1 && s.opts.KPrune == KPruneMaxMax
	subs, prefix := f.subs[:0], s.sc.prefix[:0]
	for i := range na.Entries {
		ea := &na.Entries[i]
		first := 0
		if p.a == p.b {
			first = i
		}
		for t := first; t < len(nb.Entries); t++ {
			eb := &nb.Entries[t]
			sp := nodePair{
				a: ea.Child(), b: eb.Child(),
				la: level, lb: level,
				minminSq: s.metric.MinMinKey(ea.Rect, eb.Rect),
			}
			if s.opts.Tie != TieNone {
				sp.tieKey = tieKeyFor(s.opts.Tie, s.metric, ea.Rect, eb.Rect, s.rootArea, s.rootArea)
			}
			subs = append(subs, sp)
			// Either rule can only lower the bound through a sub-pair
			// whose metric is below it, and both metrics are at least
			// MINMINDIST: the rest are not worth evaluating.
			if sp.minminSq >= s.bound {
				continue
			}
			switch {
			case s.k == 1:
				if sp.a != sp.b {
					if mm := s.metric.MinMaxKey(ea.Rect, eb.Rect); mm < s.bound {
						s.bound = mm
					}
				}
			case prefixRule:
				if mx := s.metric.MaxMaxKey(ea.Rect, eb.Rect); mx < s.bound {
					count := pts * pts
					if sp.a == sp.b {
						count = pts * (pts - 1) / 2
					}
					prefix = append(prefix, selfCount{mx, count})
				}
			}
		}
	}
	f.subs, s.sc.prefix = subs, prefix
	s.stats.SubPairsGenerated += int64(len(subs))
	if prefixRule {
		s.tightenPrefix(prefix)
	}
	T := s.T()
	for _, sp := range subs {
		if sp.minminSq > T {
			s.stats.SubPairsPruned++
			continue
		}
		h.push(sp)
	}
	return nil
}

// tightenPrefix applies the K > 1 rule: the prefix of sub-pairs, by
// ascending MAXMAXDIST, whose guaranteed pair counts reach K bounds the
// K-th distance by its largest MAXMAXDIST. Ties in the sort order cannot
// change that value. prefix holds only the sub-pairs below the current
// bound: those are a prefix of the full order, and a count that reaches K
// beyond them yields a value that would not lower the bound.
func (s *selfJoin) tightenPrefix(prefix []selfCount) {
	slices.SortFunc(prefix, func(a, b selfCount) int { return cmp.Compare(a.maxmaxSq, b.maxmaxSq) })
	var cum float64
	for i := range prefix {
		cum += prefix[i].count
		if cum >= float64(s.k) {
			if prefix[i].maxmaxSq < s.bound {
				s.bound = prefix[i].maxmaxSq
			}
			return
		}
	}
}

// scan evaluates the point pairs of a leaf pair: the upper triangle for an
// identical pair, the full cross product for distinct leaves.
func (s *selfJoin) scan(na, nb *rtree.Node) {
	if na.ID == nb.ID {
		for i := range na.Entries {
			for t := i + 1; t < len(na.Entries); t++ {
				s.offer(&na.Entries[i], &na.Entries[t])
			}
		}
		return
	}
	for i := range na.Entries {
		for t := range nb.Entries {
			s.offer(&na.Entries[i], &nb.Entries[t])
		}
	}
}

func (s *selfJoin) offer(ea, eb *rtree.Entry) {
	s.stats.PointPairsCompared++
	// Normalize pair order by ref so results are deterministic.
	if ea.Ref > eb.Ref {
		ea, eb = eb, ea
	}
	s.kheap.offer(kPair{
		distSq: s.metric.MinMinKey(ea.Rect, eb.Rect),
		p:      [2]float64{ea.Rect.Min.X, ea.Rect.Min.Y},
		q:      [2]float64{eb.Rect.Min.X, eb.Rect.Min.Y},
		refP:   ea.Ref,
		refQ:   eb.Ref,
	})
}
