package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// boundStep is one tightening of a pruning bound as the trace reports it
// (EvBoundTightened): the displaced value, the new one, and the rule.
type boundStep struct {
	old, to float64
	src     obs.BoundSource
}

func boundSteps(events []obs.Event) []boundStep {
	var steps []boundStep
	for _, e := range events {
		if e.Kind == obs.EvBoundTightened {
			steps = append(steps, boundStep{e.Old, e.New, e.Source})
		}
	}
	return steps
}

// parityInput is one tree pair of the kernel parity tests, built twice so
// the kernel join and the reference join count their own page reads.
type parityInput struct {
	name           string
	ka, kb, ra, rb *rtree.Tree
	height         HeightStrategy
}

// parityInputs are two uniform pairs plus the golden configurations of
// TestGoldenStats (equal heights; a tall insertion-built, delete-thinned
// tree on either side, under both height treatments). On 256-byte pages
// M = 6 and m = 2: a sub-pair of leaves guarantees c = 4 point pairs, so the
// K > 1 rule selects rank r = 25 of at most 36 at K = 100, and at K = 10⁴
// no expansion guarantees K pairs at all (the rule never applies). On 1 KB
// pages (M = 21, m = 7, c = 49 under leaf parents) K = 10⁴ selects r = 205
// of up to 441, and r = 5 one level up.
func parityInputs(t *testing.T) []parityInput {
	t.Helper()
	ps, qs := dataset.Uniform(41, 1200), dataset.Uniform(42, 1100)
	pl, ql := dataset.Uniform(43, 3000), dataset.Uniform(44, 2600)
	ksame, kdiff := goldenTrees(t)
	rsame, rdiff := goldenTrees(t)
	return []parityInput{
		{"uniform", buildTree(t, ps, 256), buildTree(t, qs, 256), buildTree(t, ps, 256), buildTree(t, qs, 256), FixAtRoot},
		{"uniform-1k", buildTree(t, pl, 1024), buildTree(t, ql, 1024), buildTree(t, pl, 1024), buildTree(t, ql, 1024), FixAtRoot},
		{"same", ksame[0], ksame[1], rsame[0], rsame[1], FixAtRoot},
		{"tallP/fix-at-root", kdiff[0], kdiff[1], rdiff[0], rdiff[1], FixAtRoot},
		{"tallP/fix-at-leaves", kdiff[0], kdiff[1], rdiff[0], rdiff[1], FixAtLeaves},
		{"tallQ/fix-at-root", kdiff[1], kdiff[0], rdiff[1], rdiff[0], FixAtRoot},
		{"tallQ/fix-at-leaves", kdiff[1], kdiff[0], rdiff[1], rdiff[0], FixAtLeaves},
	}
}

var parityKs = []int{1, 100, 10000}

// TestKernelCounterParity pins that the expansion kernel leaves the paper's
// cost counters exactly where the textbook per-pair expansion puts them: it
// changes how MBR pairs are compared, never which nodes are read. A kernel
// join and a reference join (refExpandInto below) walk their own copy of
// the trees in lockstep; every expansion must yield the same sub-pairs and
// the same auxiliary bound, and the walks must end on the same four
// counters, the same sequence of values assigned to the auxiliary bound and
// the same EvBoundTightened events. The reference computes the bound
// candidate the textbook way — every sub-pair's metric, a full sort — where
// the kernel evaluates only what lies below the current bound and selects.
func TestKernelCounterParity(t *testing.T) {
	for _, in := range parityInputs(t) {
		for _, alg := range Algorithms() {
			for _, k := range parityKs {
				name := fmt.Sprintf("%s/%v/k=%d", in.name, alg, k)
				opts := DefaultOptions(alg)
				opts.Height = in.height
				jk, err := newJoin(in.ka, in.kb, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				jr, err := newJoin(in.ra, in.rb, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				var traceK, traceR captureTracer
				jk.span, jr.span = obs.StartSpan(&traceK, name), obs.StartSpan(&traceR, name)
				reads := func(j *join) int64 { return j.ta.Pool().Stats().Reads + j.tb.Pool().Stats().Reads }
				root, err := jk.rootPair()
				if err != nil {
					t.Fatal(err)
				}
				boundsA, err := in.ra.Bounds()
				if err != nil {
					t.Fatal(err)
				}
				boundsB, err := in.rb.Bounds()
				if err != nil {
					t.Fatal(err)
				}
				readsK, readsR := reads(jk), reads(jr)
				var appliedK, appliedR []float64 // every value assigned to j.bound
				// The kernel walk recurses with the engine's compact pairs; the
				// reference walk carries each pair's two rectangles down from
				// the parent's entries, as the engine did before the pair lost
				// them, so the lockstep also checks the node-MBR substitution.
				var walk func(p refPair, depth int)
				walk = func(p refPair, depth int) {
					if jk.prunes() && p.minminSq > jk.T() {
						return
					}
					fk, fr := jk.sc.frame(depth), jr.sc.frame(depth)
					if err := jk.readPair(p.nodePair, fk); err != nil {
						t.Fatal(err)
					}
					if err := jr.readPair(p.nodePair, fr); err != nil {
						t.Fatal(err)
					}
					if fk.na.IsLeaf() && fk.nb.IsLeaf() {
						jk.scanLeaves(&fk.na, &fk.nb)
						jk.traceBound(obs.SourceKHeap)
						jr.scanLeaves(&fr.na, &fr.nb)
						jr.traceBound(obs.SourceKHeap)
						return
					}
					beforeK, beforeR := jk.bound, jr.bound
					subs := jk.expandInto(p.nodePair, &fk.na, &fk.nb, nil)
					ref := refExpandInto(jr, p, &fr.na, &fr.nb)
					if jk.bound != beforeK {
						appliedK = append(appliedK, jk.bound)
					}
					if jr.bound != beforeR {
						appliedR = append(appliedR, jr.bound)
					}
					if jk.bound != jr.bound || jk.T() != jr.T() {
						t.Fatalf("%s pair (%d,%d): kernel bound %g (T %g), reference %g (T %g)",
							name, p.a, p.b, jk.bound, jk.T(), jr.bound, jr.T())
					}
					if len(subs) != len(ref) {
						t.Fatalf("%s pair (%d,%d): kernel kept %d sub-pairs, reference %d",
							name, p.a, p.b, len(subs), len(ref))
					}
					for i := range subs {
						if subs[i] != ref[i].nodePair {
							t.Fatalf("%s pair (%d,%d) sub-pair %d: kernel %+v, reference %+v",
								name, p.a, p.b, i, subs[i], ref[i].nodePair)
						}
					}
					for _, sp := range ref {
						walk(sp, depth+1)
					}
				}
				walk(refPair{nodePair: root, ra: boundsA, rb: boundsB}, 0)
				jk.release()
				jr.release()
				sk, sr := jk.stats.snapshot(), jr.stats.snapshot()
				if sk.NodePairsProcessed != sr.NodePairsProcessed ||
					sk.SubPairsGenerated != sr.SubPairsGenerated || sk.SubPairsPruned != sr.SubPairsPruned ||
					reads(jk)-readsK != reads(jr)-readsR {
					t.Fatalf("%s: kernel walk (%d reads, %+v) deviates from reference walk (%d reads, %+v)",
						name, reads(jk)-readsK, sk, reads(jr)-readsR, sr)
				}
				if sk.SubPairsGenerated == 0 || reads(jk) == readsK {
					t.Fatalf("%s: walk expanded nothing (%+v)", name, sk)
				}
				if !slices.Equal(appliedK, appliedR) {
					t.Fatalf("%s: auxiliary bound took the values\n kernel    %v\n reference %v", name, appliedK, appliedR)
				}
				if jk.tightens() && (k <= 100 || in.name == "uniform-1k") && len(appliedK) == 0 {
					t.Fatalf("%s: the auxiliary bound was never applied", name)
				}
				if stepsK, stepsR := boundSteps(traceK.events), boundSteps(traceR.events); !slices.Equal(stepsK, stepsR) {
					t.Fatalf("%s: EvBoundTightened sequences differ\n kernel    %v\n reference %v", name, stepsK, stepsR)
				} else if jk.prunes() && len(stepsK) == 0 {
					t.Fatalf("%s: no EvBoundTightened event", name)
				}
			}
		}
	}
}

// TestKernelBoundParityParallel is the parallel engine's half of the same
// claim. Its workers hand the kernel the published atomic bound — which
// folds in the K-heap threshold, so far fewer candidates lie below it than
// below the sequential auxiliary bound — and apply the candidate by CAS.
// With one worker the schedule is deterministic, so every successful CAS
// (the EvBoundTightened events: value displaced, value stored, rule) can
// be held to a replay of the same schedule over the textbook expansion,
// along with the counters and the result.
func TestKernelBoundParityParallel(t *testing.T) {
	for _, in := range parityInputs(t) {
		for _, k := range parityKs {
			name := fmt.Sprintf("%s/k=%d", in.name, k)
			opts := DefaultOptions(Heap)
			opts.Height = in.height
			jk, err := newJoin(in.ka, in.kb, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			jr, err := newJoin(in.ra, in.rb, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			var trace captureTracer
			jk.span = obs.StartSpan(&trace, name)
			root, err := jk.rootPair()
			if err != nil {
				t.Fatal(err)
			}
			if err := jk.runHeapParallel(context.Background(), root, 1); err != nil {
				t.Fatal(err)
			}
			want := refParallelOneWorker(t, jr, root)
			if got := boundSteps(trace.events); !slices.Equal(got, want) {
				t.Fatalf("%s: published bound tightened through\n kernel    %v\n reference %v", name, got, want)
			} else if len(got) == 0 {
				t.Fatalf("%s: the published bound never tightened", name)
			}
			sk, sr := jk.stats.snapshot(), jr.stats.snapshot()
			sk.MaxQueueSize, sk.HeapBatches, sk.HeapBatchPairs = 0, 0, 0 // the replay keeps no such counts
			if sk != sr {
				t.Fatalf("%s: counters differ\n kernel    %+v\n reference %+v", name, sk, sr)
			}
			if !slices.Equal(jk.kheap.results(jk.metric), jr.kheap.results(jr.metric)) {
				t.Fatalf("%s: results differ", name)
			}
			jk.release()
			jr.release()
		}
	}
}

// refParallelOneWorker replays parallel.go's schedule for a single worker
// — claim up to parBatch of the best pairs, process them against the
// published bound, merge the local heap when it can lower it — with the
// reference expansion in place of the kernel, and returns every tightening
// of the published bound.
func refParallelOneWorker(t *testing.T, j *join, root nodePair) []boundStep {
	t.Helper()
	var steps []boundStep
	bound := math.Inf(1)
	tighten := func(v float64, src obs.BoundSource) {
		if v < bound {
			steps = append(steps, boundStep{bound, v, src})
			bound = v
		}
	}
	local := newKHeap(j.k)
	merge := func() {
		if len(local.pairs) == 0 {
			return
		}
		for i := range local.pairs {
			j.kheap.offer(local.pairs[i])
		}
		if j.kheap.full() {
			tighten(j.kheap.threshold(), obs.SourceMerge)
		}
		local.reset()
	}
	var frontier pairHeap
	if root.minminSq <= bound {
		frontier.push(root)
	}
	localMin := math.Inf(1)
	f := j.sc.frame(0)
	for frontier.Len() > 0 && frontier.pairs[0].minminSq <= bound {
		for _, p := range frontier.popBatch(nil, parBatch, bound) {
			if p.minminSq > bound {
				continue
			}
			if err := j.readPair(p, f); err != nil {
				t.Fatal(err)
			}
			if f.na.IsLeaf() && f.nb.IsLeaf() {
				if m := j.scanLeavesSweep(&f.na, &f.nb, local, bound); m < localMin {
					localMin = m
				}
				continue
			}
			// A fixed side's rectangle is the node's own MBR, as in the kernel.
			subs, mode := refComputeSubs(j, refPair{nodePair: p, ra: f.na.MBR(), rb: f.nb.MBR()}, &f.na, &f.nb)
			tighten(refBoundCandidate(j, subs, mode, &f.na, &f.nb), j.boundSource())
			for _, sp := range subs {
				if sp.minminSq > bound {
					j.stats.subPairsPruned.Add(1)
					continue
				}
				frontier.push(sp.nodePair)
			}
		}
		if localMin < bound {
			merge()
			localMin = math.Inf(1)
		}
	}
	merge()
	return steps
}

// refPair is the queue element the engine used before ISSUE 18: the
// compact pair plus the two MBRs copied from the parent's entries. The
// reference expansion keeps carrying them, so it takes a fixed side's
// rectangle from the parent entry where the kernel takes Node.MBR().
type refPair struct {
	nodePair
	ra, rb geom.Rect
}

// refExpandInto is the expansion the kernel replaced, kept as its
// reference: materialise every candidate sub-pair, compute its metrics
// through the generic per-pair rect calls, tighten the auxiliary bound,
// then filter against the post-tighten T.
func refExpandInto(j *join, p refPair, na, nb *rtree.Node) []refPair {
	subs, mode := refComputeSubs(j, p, na, nb)
	if j.tightens() {
		if b := refBoundCandidate(j, subs, mode, na, nb); b < j.bound {
			j.bound = b
			j.traceBound(j.boundSource())
		}
	}
	if !j.prunes() {
		return subs
	}
	T := j.T()
	kept := subs[:0]
	for _, sp := range subs {
		if sp.minminSq > T {
			j.stats.subPairsPruned.Add(1)
			continue
		}
		kept = append(kept, sp)
	}
	return kept
}

// refExpandRaw generates the candidate sub-pairs of a node pair without
// computing metrics.
func refExpandRaw(j *join, p refPair, na, nb *rtree.Node) []refPair {
	var subs []refPair
	la, lb := int32(na.Level-1), int32(nb.Level-1)
	switch j.modeFor(na, nb) {
	case expandBoth:
		for i := range na.Entries {
			for t := range nb.Entries {
				subs = append(subs, refPair{
					nodePair: nodePair{a: na.Entries[i].Child(), b: nb.Entries[t].Child(), la: la, lb: lb},
					ra:       na.Entries[i].Rect, rb: nb.Entries[t].Rect,
				})
			}
		}
	case expandAOnly:
		for i := range na.Entries {
			subs = append(subs, refPair{
				nodePair: nodePair{a: na.Entries[i].Child(), b: p.b, la: la, lb: p.lb},
				ra:       na.Entries[i].Rect, rb: p.rb,
			})
		}
	case expandBOnly:
		for t := range nb.Entries {
			subs = append(subs, refPair{
				nodePair: nodePair{a: p.a, b: nb.Entries[t].Child(), la: p.la, lb: lb},
				ra:       p.ra, rb: nb.Entries[t].Rect,
			})
		}
	}
	return subs
}

// refComputeSubs generates the candidate sub-pairs of a node pair with
// their MINMINDIST (and tie keys when active).
func refComputeSubs(j *join, p refPair, na, nb *rtree.Node) ([]refPair, expandMode) {
	mode := j.modeFor(na, nb)
	subs := refExpandRaw(j, p, na, nb)
	j.stats.subPairsGenerated.Add(int64(len(subs)))

	if j.prunes() {
		for i := range subs {
			subs[i].minminSq = j.metric.MinMinKey(subs[i].ra, subs[i].rb)
		}
	}
	if j.useTie {
		for i := range subs {
			subs[i].tieKey = tieKeyFor(j.opts.Tie, j.metric, subs[i].ra, subs[i].rb,
				j.rootAreaA, j.rootAreaB)
		}
	}
	return subs, mode
}

// refBoundCandidate computes the tightest auxiliary pruning bound the
// sub-pair MBR metrics support, without mutating any join state (+Inf when
// nothing applies): via Inequality 2 (MINMAXDIST holds for at least one
// point pair) when K = 1, or via the MAXMAXDIST prefix rule when K > 1 and
// the technical-report pruning variant is selected.
func refBoundCandidate(j *join, subs []refPair, mode expandMode, na, nb *rtree.Node) float64 {
	bound := math.Inf(1)
	if len(subs) == 0 {
		return bound
	}
	if j.k == 1 {
		for i := range subs {
			var mm float64
			if j.useTie && j.opts.Tie == Tie2 {
				mm = subs[i].tieKey // Tie2's key is exactly the MINMAXDIST key
			} else {
				mm = j.metric.MinMaxKey(subs[i].ra, subs[i].rb)
			}
			if mm < bound {
				bound = mm
			}
		}
		return bound
	}
	if j.opts.KPrune != KPruneMaxMax {
		return bound
	}
	// K > 1: every point pair under a sub-pair has distance at most its
	// MAXMAXDIST (Inequality 1, right side). Sub-pairs cover disjoint
	// point-pair sets, so the prefix of sub-pairs, sorted by ascending
	// MAXMAXDIST, whose guaranteed pair count reaches K bounds the K-th
	// closest distance by the prefix's largest MAXMAXDIST.
	type mc struct {
		maxmaxSq float64
		count    float64
	}
	mcs := make([]mc, len(subs))
	for i := range subs {
		var cntA, cntB float64
		switch mode {
		case expandBoth:
			cntA = j.guaranteedPoints(j.mA, int(subs[i].la))
			cntB = j.guaranteedPoints(j.mB, int(subs[i].lb))
		case expandAOnly:
			cntA = j.guaranteedPoints(j.mA, int(subs[i].la))
			cntB = nodeGuaranteedPoints(j.mB, nb)
		case expandBOnly:
			cntA = nodeGuaranteedPoints(j.mA, na)
			cntB = j.guaranteedPoints(j.mB, int(subs[i].lb))
		}
		mcs[i] = mc{
			maxmaxSq: j.metric.MaxMaxKey(subs[i].ra, subs[i].rb),
			count:    cntA * cntB,
		}
	}
	sort.Slice(mcs, func(x, y int) bool { return mcs[x].maxmaxSq < mcs[y].maxmaxSq })
	var cum float64
	for i := range mcs {
		cum += mcs[i].count
		if cum >= float64(j.k) {
			if mcs[i].maxmaxSq < bound {
				bound = mcs[i].maxmaxSq
			}
			return bound
		}
	}
	return bound
}

// TestKernelScratchZeroAlloc pins the steady-state allocation discipline
// of the batched expansion kernel's SoA scratch: warm fills and key-buffer
// growth reuse capacity.
func TestKernelScratchZeroAlloc(t *testing.T) {
	pts := dataset.Uniform(62, 32)
	entries := make([]rtree.Entry, len(pts))
	for i, p := range pts {
		entries[i] = rtree.Entry{Rect: geom.Rect{Min: p, Max: p}, Ref: int64(i)}
	}
	sc := new(kernelScratch)
	n := len(entries) * len(entries)
	sc.fillA(entries)
	sc.fillB(entries)
	sc.keys = growF64(sc.keys, n)
	sc.maxmax = growF64(sc.maxmax, n)
	allocs := testing.AllocsPerRun(100, func() {
		sc.fillA(entries)
		sc.fillB(entries)
		sc.keys = growF64(sc.keys, n)
		sc.maxmax = growF64(sc.maxmax, n)
	})
	if allocs != 0 {
		t.Fatalf("warm kernel scratch fill allocates %v per op, want 0", allocs)
	}
}

// BenchmarkBoundCandidate is the K > 1 bound of one 14 x 14 expansion with
// nothing known yet (current bound +Inf, so every sub-pair is a candidate:
// the most the selection ever has to look at). With m = 7 a sub-pair of
// leaves guarantees 49 point pairs: K = 40 reads off the minimum (r = 1,
// the benchmark workloads' case), K = 64·49 selects the 64th of 196.
func BenchmarkBoundCandidate(b *testing.B) {
	node := func(seed int64) *rtree.Node {
		n := &rtree.Node{Level: 1}
		for i, p := range dataset.Uniform(seed, 14) {
			n.Entries = append(n.Entries, rtree.Entry{Rect: geom.Rect{Min: p, Max: p.Add(0.05, 0.05)}, Ref: int64(i)})
		}
		return n
	}
	na, nb := node(81), node(82)
	for _, r := range []int{1, 64} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			j := &join{k: r*49 - 9, opts: DefaultOptions(Heap), metric: geom.L2(), mA: 7, mB: 7}
			var sc kernelScratch
			e := j.beginExpand(&sc, nodePair{}, na, nb, math.Inf(1)) // fills the scratch, computes the keys
			if math.IsInf(e.bound, 1) {
				b.Fatal("no bound candidate")
			}
			var sink float64
			candidate := func() { sink = e.boundCandidate(math.Inf(1)) }
			if allocs := testing.AllocsPerRun(100, candidate); allocs != 0 || sink != e.bound {
				b.Fatalf("a warm bound candidate allocates %v (want 0) and is %g (want %g)", allocs, sink, e.bound)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				candidate()
			}
		})
	}
}
