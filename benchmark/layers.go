package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	cpq "repro"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/storage"
)

// sink keeps probe loops from being optimised away.
var sink float64

// countedOps is how many ops per instance the per-query counts average.
const countedOps = 5

// nsPerOp times n calls of fn reps times over and returns the median
// nanoseconds per call.
func nsPerOp(reps, n int, fn func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// medianOf3 runs fn three times and returns the median of what it reports.
func medianOf3(fn func() float64) float64 {
	return median([]float64{fn(), fn(), fn()})
}

// quiet is the undisturbed reading of a wall-time sample (see robust).
func quiet(xs []float64) float64 { return percentile(xs, robustQuantile) }

// firstPerInstance keeps each instance's first n ops.
func firstPerInstance(ops []opSample, n int) []opSample {
	seen := map[int]int{}
	var out []opSample
	for _, op := range ops {
		if seen[op.inst] < n {
			seen[op.inst]++
			out = append(out, op)
		}
	}
	return out
}

// facadeReadings are the numbers of the measure phase the probes combine
// their own times with.
type facadeReadings struct {
	hits, reads, nodeReads, nodePairs float64 // per query
	facadeMS                          float64 // undisturbed wall of instance 0's queries
	selfMS                            []float64
}

// facadeCounts fills the metrics that come from differencing
// Stats/IOStats/MemStats around the facade calls of the measure phase.
// Counts are means per instance, then over instances.
func (s *session) facadeCounts(out *outcome, ph, traced phase) facadeReadings {
	ops := ph.ops()
	n := float64(len(ops))
	// Counts come from each instance's first countedOps ops, so that they
	// repeat exactly however many ops the clock allowed (on mutate-query
	// every cycle queries a different P).
	counted := firstPerInstance(ops, countedOps)
	per := func(pick func(cpq.Stats) int64) float64 {
		return byInstance(counted, func(op opSample) float64 { return float64(pick(op.stats)) }, mean)
	}
	ratio := func(name string, part, whole float64) {
		if whole > 0 {
			out.set(name, part/whole)
		}
	}

	var f facadeReadings
	f.hits = per(func(st cpq.Stats) int64 { return st.IOP.Hits + st.IOQ.Hits })
	f.reads = accessesPerQuery(counted)
	cacheHits := per(func(st cpq.Stats) int64 { return st.NodeCacheHits })
	cacheMisses := per(func(st cpq.Stats) int64 { return st.NodeCacheMisses })
	f.nodeReads = f.hits + f.reads + cacheHits
	f.nodePairs = per(func(st cpq.Stats) int64 { return st.NodePairsProcessed })
	subPairs := per(func(st cpq.Stats) int64 { return st.SubPairsGenerated })
	out.set("storage.hits_per_query", f.hits)
	out.set("storage.reads_per_query", f.reads)
	out.set("storage.evictions_per_query", per(func(st cpq.Stats) int64 { return st.IOP.Evictions + st.IOQ.Evictions }))
	ratio("storage.hit_ratio", f.hits, f.hits+f.reads)
	out.set("rtree.node_reads_per_query", f.nodeReads)
	ratio("rtree.nodecache_hit_ratio", cacheHits, cacheHits+cacheMisses)
	out.set("core.node_pairs_per_query", f.nodePairs)
	out.set("core.sub_pairs_per_query", subPairs)
	ratio("core.sub_pair_prune_ratio", per(func(st cpq.Stats) int64 { return st.SubPairsPruned }), subPairs)
	out.set("core.point_pairs_per_query", per(func(st cpq.Stats) int64 { return st.PointPairsCompared }))
	out.set("core.max_queue", per(func(st cpq.Stats) int64 { return int64(st.MaxQueueSize) }))
	out.set("facade.accesses_per_query", f.reads)

	queryMS := pickAll(ops, opQueryMS)
	out.set("facade.query_p50_ms", median(queryMS))
	out.set("facade.query_p90_ms", percentile(queryMS, 0.9))
	out.set("facade.query_max_ms", percentile(queryMS, 1))
	var total meter
	var updateUS []float64
	var writes int64
	for _, r := range ph {
		total.mallocs += r.mallocs
		total.gcs += r.gcs
		total.pauseNS += r.pauseNS
		updateUS = append(updateUS, r.updateUS...)
		f.selfMS = append(f.selfMS, r.selfMS...)
		writes += r.writes
	}
	out.set("facade.cpu_s_per_query", mean(pickAll(ops, opCPU))) // total CPU of the timed cycles ÷ ops
	out.set("facade.mallocs_per_query", float64(total.mallocs)/n)
	out.set("facade.gc_cycles_per_query", float64(total.gcs)/n)
	out.set("facade.gc_pause_ms_per_query", float64(total.pauseNS)/1e6/n)
	out.set("facade.open_index_ms", median(s.openMS))
	if s.w.mutate {
		out.set("facade.update_p50_us", median(updateUS))
		out.set("facade.self_cp_p50_ms", median(f.selfMS))
		out.set("storage.writes_per_update", float64(writes)/float64(len(updateUS)))
	}
	ratio("obs.trace_overhead_ratio", quiet(pickAll(traced.ops(), opQueryMS)), quiet(queryMS))

	// Times on the twins of instance 0 are compared with the facade's times
	// on instance 0, undisturbed reading against undisturbed reading.
	var facade0 []float64
	for _, op := range ops {
		if op.inst == 0 {
			facade0 = append(facade0, op.queryMS)
		}
	}
	f.facadeMS = quiet(facade0)
	return f
}

// prober times the layers from outside, on twin trees of instance 0. It
// keeps the first error; once one is kept the remaining probes are skipped.
type prober struct {
	s   *session
	out *outcome
	it  *instance
	tw  *twins

	// rt is a second tree handle over P's page file whose pool, resident,
	// holds every page, so node and pool probes never miss; ids are its
	// node pages, shuffled.
	rt       *rtree.Tree
	resident *storage.BufferPool
	ids      []storage.PageID
	leafMBRs []geom.Rect

	rng *rand.Rand
	err error
}

func (p *prober) keep(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// probe runs fn under a span named after the layer it times.
func (p *prober) probe(name string, fn func()) {
	if p.err != nil {
		return
	}
	id := p.s.tr.begin(name, p.s.phaseSpan, 0)
	fn()
	p.s.tr.end(id)
	if p.err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, p.err)
	}
}

func (s *session) newProber(out *outcome) (*prober, error) {
	it := s.inst[0]
	tw, err := buildTwins(s.cfg, it.in)
	if err != nil {
		return nil, err
	}
	p := &prober{s: s, out: out, it: it, tw: tw, rng: rand.New(rand.NewSource(s.cfg.seed))}
	p.resident = storage.NewBufferPool(tw.p.file, int(tw.p.file.NumPages()))
	if p.rt, err = rtree.Open(p.resident); err == nil {
		err = p.rt.Walk(func(nd *rtree.Node) error {
			p.ids = append(p.ids, nd.ID)
			if nd.IsLeaf() {
				p.leafMBRs = append(p.leafMBRs, nd.MBR())
			}
			return nil
		})
	}
	if err != nil {
		_ = tw.close() // the walk's error is the one to report
		return nil, err
	}
	p.rng.Shuffle(len(p.ids), func(i, j int) { p.ids[i], p.ids[j] = p.ids[j], p.ids[i] })
	return p, nil
}

// layers fills the per-layer metrics: the facade's counts, then the probes.
func (s *session) layers(out *outcome, ph, traced phase) error {
	for _, m := range perLayer {
		out.values[m.Name] = 0 // not applicable on this workload
	}
	f := s.facadeCounts(out, ph, traced)
	p, err := s.newProber(out)
	if err != nil {
		return err
	}
	defer func() { _ = p.tw.close() }() // probes leave nothing worth flushing

	p.storage(f)
	rtreeEst := p.rtree(f)
	p.geom()
	p.core(f, rtreeEst, traced)
	if s.w.name == "mem-smallk" {
		p.explainOverhead(f)
	}
	if s.w.mutate {
		p.floor(f)
	}
	p.updates() // last: it restructures the twin
	out.set("facade.error_rate", float64(s.failed)/float64(max(s.attempted, 1)))
	return p.err
}

func (p *prober) storage(f facadeReadings) {
	out, ids, file := p.out, p.ids, p.tw.p.file
	var hitNS, missNS float64
	p.probe("storage.pool_hit", func() {
		hitNS = nsPerOp(3, len(ids), func(i int) {
			b, err := p.resident.Get(ids[i])
			p.keep(err)
			sink += float64(len(b))
		})
		out.set("storage.pool_hit_ns", hitNS)
	})
	p.probe("storage.pool_miss", func() {
		small := storage.NewBufferPool(file, 64)
		missNS = medianOf3(func() float64 {
			small.Clear()
			small.ResetStats()
			start := time.Now()
			for _, id := range ids {
				_, err := small.Get(id)
				p.keep(err)
			}
			return float64(time.Since(start).Nanoseconds()) / float64(max(small.Stats().Reads, 1))
		})
		out.set("storage.pool_miss_ns", missNS)
	})
	p.probe("storage.page_read", func() {
		buf := make([]byte, pageSize)
		out.set("storage.page_read_ns", nsPerOp(3, len(ids), func(i int) {
			p.keep(file.ReadPage(ids[i], buf))
		}))
	})
	p.probe("storage.page_write", func() {
		// Rewrite pages with their own bytes, so the twin stays intact.
		bufs := make([][]byte, min(len(ids), 2048))
		for i := range bufs {
			bufs[i] = make([]byte, pageSize)
			p.keep(file.ReadPage(ids[i], bufs[i]))
		}
		out.set("storage.page_write_ns", nsPerOp(3, len(bufs), func(i int) {
			p.keep(file.WritePage(ids[i], bufs[i]))
		}))
	})
	out.set("storage.est_ms_per_query", (f.hits*hitNS+f.reads*missNS)/1e6)
}

// rtree returns rtree.est_ms_per_query, which core.ns_per_node_pair
// subtracts.
func (p *prober) rtree(f facadeReadings) float64 {
	out, ids, w := p.out, p.ids, p.s.w
	readNode := func(i int) {
		nd, err := p.rt.ReadNode(ids[i])
		p.keep(err)
		if nd != nil {
			sink += float64(len(nd.Entries))
		}
	}
	var readNodeNS float64
	p.probe("rtree.read_node", func() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		readNodeNS = nsPerOp(3, len(ids), readNode)
		runtime.ReadMemStats(&m1)
		out.set("rtree.read_node_ns", readNodeNS)
		out.set("rtree.read_node_alloc_b", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(3*len(ids)))
	})
	p.probe("rtree.nodecache_hit", func() {
		p.rt.SetNodeCache(rtree.NewNodeCache(len(ids)+1, 1))
		nsPerOp(1, len(ids), readNode) // fill the cache
		out.set("rtree.nodecache_hit_ns", nsPerOp(3, len(ids), readNode))
		p.rt.SetNodeCache(nil)
	})
	p.probe("rtree.bulkload", func() {
		points := float64(len(p.tw.p.items))
		items := make([]rtree.Item, len(p.tw.p.items))
		out.set("rtree.sort_str_ns_per_point", medianOf3(func() float64 {
			copy(items, p.tw.p.items)
			start := time.Now()
			rtree.SortSTR(items)
			return float64(time.Since(start).Nanoseconds()) / points
		}))
		out.set("rtree.bulkload_ns_per_point", medianOf3(func() float64 {
			file := storage.NewMemFile(pageSize)
			tree, err := rtree.New(storage.NewShardedBufferPool(file, w.bufferPages, w.bufferShards, storage.LRU), rtree.DefaultConfig())
			p.keep(err)
			if err != nil {
				return 0
			}
			copy(items, p.tw.p.items)
			start := time.Now()
			p.keep(tree.BulkLoad(items, 0.7))
			d := time.Since(start)
			p.keep(file.Close())
			return float64(d.Nanoseconds()) / points
		}))
	})
	p.probe("rtree.scan_all", func() {
		out.set("rtree.scan_all_ms", medianOf3(func() float64 {
			count := 0
			start := time.Now()
			p.keep(p.tw.p.tree.All(func(rtree.Item) bool { count++; return true }))
			d := time.Since(start)
			if count != len(p.tw.p.items) {
				p.keep(fmt.Errorf("scanned %d items of %d", count, len(p.tw.p.items)))
			}
			return ms(d)
		}))
	})
	out.set("rtree.nodes", float64(len(ids)))
	out.set("rtree.height", float64(p.tw.p.tree.Height()))
	est := f.nodeReads * readNodeNS / 1e6
	out.set("rtree.est_ms_per_query", est)
	return est
}

func (p *prober) geom() {
	p.probe("geom.keys", func() {
		metric := geom.L2()
		mbrs, ps, qs := p.leafMBRs, p.it.in.p, p.it.in.q
		p.out.set("geom.minmin_key_ns", nsPerOp(3, 1<<18, func(i int) {
			sink += metric.MinMinKey(mbrs[i%len(mbrs)], mbrs[(i*7+3)%len(mbrs)])
		}))
		p.out.set("geom.point_key_ns", nsPerOp(3, 1<<18, func(i int) {
			sink += metric.Key(ps[i%len(ps)], qs[(i*7+3)%len(qs)])
		}))
	})
}

// core runs the engine straight on the twins, and on clustered-sharded the
// shard layer's steps beside it.
func (p *prober) core(f facadeReadings, rtreeEst float64, traced phase) {
	out, w, workers := p.out, p.s.w, p.s.cfg.workers
	opts := w.coreOptions(workers)
	var coreMS float64 // the undisturbed reading
	var coreStats core.Stats
	p.probe("core.query", func() {
		var p50 float64
		p50, coreMS, coreStats = p.coreQueries(w.k, opts, !w.mutate)
		out.set("core.query_p50_ms", p50)
	})
	if f.nodePairs > 0 && w.shards <= 1 {
		out.set("core.ns_per_node_pair", (coreMS-rtreeEst)*1e6/f.nodePairs)
	}
	out.set("facade.overhead_ms", f.facadeMS-coreMS)
	if w.k > 100 && !w.mutate {
		// The leaf scan's share: the same node pairs at K=100 scan a tenth
		// of the point pairs.
		p.probe("core.query_k100", func() {
			_, small, smallStats := p.coreQueries(100, opts, false)
			if d := float64(coreStats.PointPairsCompared - smallStats.PointPairsCompared); d > 0 {
				out.set("core.leafscan_ns_per_point_pair", (coreMS-small)*1e6/d)
			}
		})
	}
	if w.parallel {
		p.probe("core.query_seq", func() {
			seq := opts
			seq.Parallelism = 1
			_, one, _ := p.coreQueries(w.k, seq, true)
			if coreMS > 0 {
				out.set("core.par_speedup", one/coreMS)
				out.set("core.par_efficiency", one/coreMS/float64(workers))
			}
		})
	}
	p.probe("core.merge_topk", func() {
		// 16 partial lists of 100, as a 4-tile sharded K=100 query merges.
		ps, qs := p.it.in.p, p.it.in.q
		parts := make([][]core.Pair, 16)
		for i := range parts {
			for j := 0; j < 100; j++ {
				a, b := p.rng.Intn(len(ps)), p.rng.Intn(len(qs))
				parts[i] = append(parts[i], core.Pair{P: ps[a], Q: qs[b], RefP: int64(a), RefQ: int64(b),
					Dist: geom.L2().Dist(ps[a], qs[b])})
			}
			sort.Slice(parts[i], func(a, b int) bool { return parts[i][a].Dist < parts[i][b].Dist })
		}
		out.set("core.merge_topk_us", nsPerOp(3, 200, func(int) {
			sink += float64(len(core.MergeTopK(geom.L2(), 100, parts...)))
		})/1e3)
	})
	if w.shards > 1 {
		p.shard(opts, traced, f.facadeMS, coreMS)
	}
}

// coreQueries runs core.KClosestPairs on the twins for an eighth of the
// run's seconds (at least 5 times) and returns the median and the
// undisturbed wall in ms and one query's stats. check compares each result
// with the facade's verified one.
func (p *prober) coreQueries(k int, opts core.Options, check bool) (p50, undisturbed float64, stats core.Stats) {
	s := p.s
	var walls []float64
	deadline := time.Now().Add(time.Duration(s.cfg.seconds / 8 * float64(time.Second)))
	for len(walls) < 5 || time.Now().Before(deadline) {
		if s.w.disk {
			p.tw.dropCaches()
		}
		start := time.Now()
		pairs, st, err := core.KClosestPairs(p.tw.p.tree, p.tw.q.tree, k, opts)
		walls = append(walls, ms(time.Since(start)))
		if err != nil {
			p.keep(err)
			return 0, 0, stats
		}
		stats = st
		if check && k == s.w.k {
			s.attempted++
			if h := hashPairs(pairs); h != p.it.wantHash {
				s.fail("core.KClosestPairs on the twins: result hash %016x differs from the facade's %016x", h, p.it.wantHash)
			}
		}
	}
	return median(walls), quiet(walls), stats
}

// shard times the shard layer's three steps from outside and reads the
// same split from the traced pass's explain snapshots.
func (p *prober) shard(opts core.Options, traced phase, facadeMS, coreMS float64) {
	s, out := p.s, p.out
	var partMS, runMS, closeMS []float64
	var res shard.Result
	// The facade partitions what Tree.All drains, in tree order.
	var drained [2][]rtree.Item
	p.probe("shard.steps", func() {
		for i, t := range []*twin{p.tw.p, p.tw.q} {
			p.keep(t.tree.All(func(it rtree.Item) bool { drained[i] = append(drained[i], it); return true }))
		}
		for r := 0; r < 3 && p.err == nil; r++ {
			t0 := time.Now()
			set, err := shard.Partition(drained[0], drained[1], shard.Config{Tiles: s.w.shards, Tree: p.tw.p.tree.Config()})
			if err != nil {
				p.keep(err)
				return
			}
			t1 := time.Now()
			ex := shard.Executor{Set: set}
			res, err = ex.Run(s.w.k, opts)
			t2 := time.Now()
			p.keep(err)
			p.keep(set.Close())
			t3 := time.Now()
			partMS, runMS, closeMS = append(partMS, ms(t1.Sub(t0))), append(runMS, ms(t2.Sub(t1))), append(closeMS, ms(t3.Sub(t2)))
			s.attempted++
			if h := hashPairs(res.Pairs); h != p.it.wantHash {
				s.fail("shard.Executor.Run: result hash %016x differs from the facade's %016x", h, p.it.wantHash)
			}
		}
	})
	out.set("shard.partition_ms", median(partMS))
	out.set("shard.run_ms", median(runMS))
	out.set("shard.close_ms", median(closeMS))
	out.set("shard.pairs_planned", float64(res.PlannedPairs))
	out.set("shard.pairs_pruned", float64(res.PrunedPairs))
	if res.PlannedPairs > 0 {
		out.set("shard.pair_prune_ratio", float64(res.PrunedPairs)/float64(res.PlannedPairs))
	}
	phases := map[string][]float64{}
	for _, r := range traced {
		for name, v := range r.phases {
			phases[name] = append(phases[name], v...)
		}
	}
	for _, name := range []string{"partition", "build", "dispatch", "join", "merge"} {
		out.set("shard.phase_"+name+"_ms", median(phases[name]))
	}
	if coreMS > 0 {
		out.set("shard.vs_mono_ratio", facadeMS/coreMS)
	}
	// The explain phases must account for the partition they describe: one
	// more Partition, under a capture, whose partition + build phases are
	// held against the outside clock of the same call. (Comparing the traced
	// pass's phases with the probe's walls instead would compare two moments
	// of a noisy machine.)
	p.probe("shard.phase_check", func() {
		capture := cpq.NewExplainCapture(nil)
		start := time.Now()
		set, err := shard.Partition(drained[0], drained[1], shard.Config{Tiles: s.w.shards, Tree: p.tw.p.tree.Config(), Capture: capture})
		outside := ms(time.Since(start))
		if err != nil {
			p.keep(err)
			return
		}
		p.keep(set.Close())
		inside := 0.0
		for _, phase := range capture.Snapshot().Exec.Phases {
			inside += float64(phase.DurationNS) / 1e6
		}
		s.attempted++
		if inside < 0.9*outside || inside > 1.1*outside {
			s.fail("invariant: explain phases partition + build = %.1f ms, outside shard.Partition = %.1f ms, more than 10%% apart", inside, outside)
		}
	})
}

// explainOverhead is the cost of WithExplain on the facade's own indexes.
func (p *prober) explainOverhead(f facadeReadings) {
	p.probe("obs.explain", func() {
		s := p.s
		var with []float64
		deadline := time.Now().Add(time.Duration(s.cfg.seconds / 8 * float64(time.Second)))
		for len(with) < 5 || time.Now().Before(deadline) {
			start := time.Now()
			pairs, _, err := cpq.KClosestPairs(p.it.P, p.it.Q, s.w.k, cpq.WithExplain(cpq.NewExplainCapture(nil)))
			with = append(with, ms(time.Since(start)))
			s.checkQuery(p.it, pairs, err)
		}
		if f.facadeMS > 0 {
			p.out.set("obs.explain_overhead_ratio", quiet(with)/f.facadeMS)
		}
	})
}

// floor is what P's live points cost as a flat array.
func (p *prober) floor(f facadeReadings) {
	p.probe("floor.dc_self_cp", func() {
		s := p.s
		pts, _ := p.it.livePoints()
		var dist float64
		dcMS := medianOf3(func() float64 {
			start := time.Now()
			dist = dcSelfCP(pts)
			return ms(time.Since(start))
		})
		self, _, err := cpq.SelfClosestPair(p.it.P)
		s.attempted++
		if err != nil {
			s.fail("SelfClosestPair: %v", err)
		} else if !sameDist(self.Dist, dist) {
			s.fail("floor: divide-and-conquer closest pair %g, SelfClosestPair %g", dist, self.Dist)
		}
		p.out.set("floor.dc_self_cp_ms", dcMS)
		p.out.set("floor.self_cp_ratio", median(f.selfMS)/dcMS)
	})
}

// updates times the write path on the twin.
func (p *prober) updates() {
	p.probe("rtree.update", func() {
		const m = 2000
		fresh := uniform(p.s.cfg.seed+7, m)
		base := int64(1) << 40
		tree := p.tw.p.tree
		p.out.set("rtree.insert_us", nsPerOp(1, m, func(i int) {
			p.keep(tree.InsertPoint(fresh[i], base+int64(i)))
		})/1e3)
		p.out.set("rtree.delete_us", nsPerOp(1, m, func(i int) {
			p.keep(tree.DeletePoint(fresh[i], base+int64(i)))
		})/1e3)
	})
}
