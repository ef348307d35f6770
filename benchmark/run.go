package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	cpq "repro"
	"repro/internal/geom"
)

// The run shape: closed loop, one client goroutine, ops round-robin over
// the run's instances.
const (
	// instances is the number of independent data set pairs a run builds
	// and queries in turn. One pair's cost depends on how its K closest
	// pairs happen to fall (13% between seeds on mutate-query); a run
	// reports the mean over its pairs, which halves that, and the builds
	// double as the repeated set-ups setup_s is the median of.
	instances       = 4
	warmupPerInst   = 1
	measureRounds   = 5
	robustQuantile  = 0.10
	minDiskAccesses = 20000
	// buildBufferPages is the facade's default pool, which disk-cold builds
	// under before it reopens with the workload's 64 pages.
	buildBufferPages = 128
)

// config is one run of one workload.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	n       int    // cardinality override for the tests, 0 = the workload's
	workers int    // W = GOMAXPROCS
	dir     string // scratch directory for index files
}

type liveRec struct {
	p   geom.Point
	ref int64
}

// instance is one data set pair with its indexes and the benchmark's own
// copy of P's live records.
type instance struct {
	id   int
	in   inputs
	P, Q *cpq.Index

	// live[head:] are P's records in insertion order (mutate-query deletes
	// the oldest first).
	live    []liveRec
	head    int
	nextRef int64
	cycles  int

	// wantHash is the oracle-verified result of the (static) query.
	verified bool
	wantHash uint64

	pages int64 // node and meta pages of both indexes after set-up
}

// session is the state of one run.
type session struct {
	cfg   config
	w     workload
	qopts []cpq.QueryOption
	inst  []*instance
	next  int // round-robin cursor

	attempted, failed int
	notes             []string

	tr        *tracer
	phaseSpan int
	opSeq     int

	setupS []float64 // one per instance
	openMS []float64 // disk-cold: the OpenIndex share of each set-up
}

// opSample is one timed cycle: the primary op, and on mutate-query the
// updates and the self closest pair around it.
type opSample struct {
	inst    int
	queryMS float64
	cycleMS float64 // the whole timed segment
	cpuS    float64
	allocB  uint64
	stats   cpq.Stats
}

// roundAcc is what one measure round accumulates.
type roundAcc struct {
	meter
	ops              []opSample
	updateUS, selfMS []float64
	writes           int64 // page writes of the updates
	phases           map[string][]float64
}

// phase is the rounds of one measure phase (timed or traced).
type phase []*roundAcc

func (ph phase) ops() []opSample {
	var out []opSample
	for _, r := range ph {
		out = append(out, r.ops...)
	}
	return out
}

func pickAll(ops []opSample, pick func(opSample) float64) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = pick(op)
	}
	return out
}

// byInstance summarises pick per instance with fold and returns the mean
// over the instances that ran. Counts that are exact per instance stay
// exact however the ops happened to divide between instances.
func byInstance(ops []opSample, pick func(opSample) float64, fold func([]float64) float64) float64 {
	var groups [instances][]float64
	for _, op := range ops {
		groups[op.inst] = append(groups[op.inst], pick(op))
	}
	var folded []float64
	for _, g := range groups {
		if len(g) > 0 {
			folded = append(folded, fold(g))
		}
	}
	return mean(folded)
}

// robust is the benchmark's steady reading of a per-op time: the sandbox
// slows a third of the ops by ~40% in episodes of seconds, so a median
// flips between two modes from run to run; the 10th percentile stays in
// the undisturbed mode. Taken per instance, then averaged.
func robust(ops []opSample, pick func(opSample) float64) float64 {
	return byInstance(ops, pick, func(xs []float64) float64 { return percentile(xs, robustQuantile) })
}

func opQueryMS(op opSample) float64 { return op.queryMS }
func opCPU(op opSample) float64     { return op.cpuS }
func opAllocMB(op opSample) float64 { return float64(op.allocB) / 1e6 }

func (s *session) fail(format string, args ...any) {
	s.failed++
	if len(s.notes) < 8 {
		s.notes = append(s.notes, fmt.Sprintf(format, args...))
	}
}

// setup builds both indexes of one instance through the facade, as a user
// would, and returns the wall time from points-in-memory to
// ready-for-first-query (and, on disk-cold, the OpenIndex share of it).
func (s *session) setup(it *instance) (total, open time.Duration, err error) {
	w := s.w
	start := time.Now()
	if !w.disk {
		if it.P, err = cpq.BuildIndex(it.in.p, w.indexOptions(w.bufferPages)...); err != nil {
			return 0, 0, err
		}
		if it.Q, err = cpq.BuildIndex(it.in.q, w.indexOptions(w.bufferPages)...); err != nil {
			return 0, 0, err
		}
		return time.Since(start), 0, nil
	}
	paths := [2]string{
		filepath.Join(s.cfg.dir, fmt.Sprintf("P%d.idx", it.id)),
		filepath.Join(s.cfg.dir, fmt.Sprintf("Q%d.idx", it.id)),
	}
	for i, pts := range [2][]geom.Point{it.in.p, it.in.q} {
		idx, err := cpq.BuildIndex(pts, append(w.indexOptions(buildBufferPages), cpq.WithPath(paths[i]))...)
		if err != nil {
			return 0, 0, err
		}
		if err := idx.Close(); err != nil {
			return 0, 0, err
		}
	}
	openStart := time.Now()
	if it.P, err = cpq.OpenIndex(paths[0], cpq.WithBufferPages(w.bufferPages)); err != nil {
		return 0, 0, err
	}
	if it.Q, err = cpq.OpenIndex(paths[1], cpq.WithBufferPages(w.bufferPages)); err != nil {
		return 0, 0, err
	}
	return time.Since(start), time.Since(openStart), nil
}

func (s *session) closeIndexes() error {
	var err error
	for _, it := range s.inst {
		if it.P != nil {
			err = errors.Join(err, it.P.Close())
		}
		if it.Q != nil {
			err = errors.Join(err, it.Q.Close())
		}
		it.P, it.Q = nil, nil
	}
	return err
}

// countPages reads an index's size off the facade: with cold caches, a
// scan of everything misses once per node, and the meta page makes one
// more.
func countPages(idx *cpq.Index) (int64, error) {
	bounds, err := idx.Bounds()
	if err != nil {
		return 0, err
	}
	idx.DropCaches()
	idx.ResetIOStats()
	points := int64(0)
	if err := idx.Search(bounds, func(cpq.Point, int64) bool { points++; return true }); err != nil {
		return 0, err
	}
	if points != idx.Len() {
		return 0, fmt.Errorf("scan found %d points of %d", points, idx.Len())
	}
	return idx.IOStats().Reads + 1, nil
}

// setupAll generates and sets up every instance. The set-ups are timed one
// by one; setup_s is their median.
func (s *session) setupAll() error {
	for j := 0; j < instances; j++ {
		it := &instance{id: j, in: makeInputs(s.w, s.cfg.seed, j, s.cfg.n)}
		s.inst = append(s.inst, it)
		runtime.GC()
		id := s.tr.begin("setup", s.phaseSpan, 0)
		total, open, err := s.setup(it)
		s.tr.end(id)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.setupS = append(s.setupS, total.Seconds())
		s.openMS = append(s.openMS, ms(open))
		for _, idx := range []*cpq.Index{it.P, it.Q} {
			pages, err := countPages(idx)
			if err != nil {
				return fmt.Errorf("index size: %w", err)
			}
			it.pages += pages
		}
		if s.w.mutate {
			for i, p := range it.in.p {
				it.live = append(it.live, liveRec{p, int64(i)})
			}
		}
		it.nextRef = int64(len(it.in.p))
	}
	return nil
}

// livePoints is the benchmark's own view of an instance's P.
func (it *instance) livePoints() ([]geom.Point, []int64) {
	if it.live == nil {
		return it.in.p, nil
	}
	recs := it.live[it.head:]
	pts, refs := make([]geom.Point, len(recs)), make([]int64, len(recs))
	for i, r := range recs {
		pts[i], refs[i] = r.p, r.ref
	}
	return pts, refs
}

// checkQuery judges one K-CPQ result. A static workload asks the oracle
// once per instance and compares result hashes afterwards; mutate-query
// asks it every oracleStride-th cycle and checks shape in between.
func (s *session) checkQuery(it *instance, pairs []cpq.Pair, err error) {
	s.attempted++
	if err != nil {
		s.fail("KClosestPairs: %v", err)
		return
	}
	useOracle := !it.verified
	if s.w.mutate {
		useOracle = it.cycles%oracleStride == 0
	}
	if useOracle {
		pts, refs := it.livePoints()
		if err := checkKCP(pts, refs, it.in.q, nil, pairs, s.w.k); err != nil {
			s.fail("%v", err)
			return
		}
		it.verified, it.wantHash = true, hashPairs(pairs)
		return
	}
	if s.w.mutate {
		if len(pairs) != s.w.k {
			s.fail("KClosestPairs returned %d pairs, want %d", len(pairs), s.w.k)
			return
		}
		for i := 1; i < len(pairs); i++ {
			if pairs[i].Dist < pairs[i-1].Dist {
				s.fail("KClosestPairs result not ascending at %d", i)
				return
			}
		}
		return
	}
	if h := hashPairs(pairs); h != it.wantHash {
		s.fail("KClosestPairs result hash %016x differs from the verified %016x", h, it.wantHash)
	}
}

func (s *session) checkSelf(it *instance, pair cpq.Pair, err error) {
	s.attempted++
	if err != nil {
		s.fail("SelfClosestPair: %v", err)
		return
	}
	if it.cycles%oracleStride != 0 {
		return
	}
	pts, refs := it.livePoints()
	if err := checkSelfCP(pts, refs, pair); err != nil {
		s.fail("%v", err)
	}
}

// opSpan opens a span for one facade call in the traced pass.
func (s *session) opSpan(name string) int {
	if s.tr == nil {
		return 0
	}
	s.opSeq++
	return s.tr.begin(name, s.phaseSpan, s.opSeq)
}

// cycle runs the workload's primary op once on the next instance — on
// mutate-query with the updates before it and the self closest pair after
// it — on acc's clocks, and checks the results off the clocks. explain
// swaps the K-CPQ for cpq.Explain so the snapshot's phases become child
// spans.
func (s *session) cycle(acc *roundAcc, explain bool) {
	it := s.inst[s.next%len(s.inst)]
	s.next++
	if s.w.mutate {
		s.mutateCycle(acc, it)
		return
	}
	if s.w.disk {
		it.P.DropCaches()
		it.Q.DropCaches()
	}
	var (
		pairs []cpq.Pair
		stats cpq.Stats
		rep   *cpq.ExplainReport
		err   error
	)
	id := s.opSpan("op")
	acc.begin()
	if explain {
		pairs, stats, rep, err = cpq.Explain(it.P, it.Q, s.w.k, s.qopts...)
	} else {
		pairs, stats, err = cpq.KClosestPairs(it.P, it.Q, s.w.k, s.qopts...)
	}
	seg := acc.end()
	s.tr.end(id)
	acc.ops = append(acc.ops, opSample{inst: it.id, queryMS: ms(seg.wall), cycleMS: ms(seg.wall),
		cpuS: seg.cpu.Seconds(), allocB: seg.allocB, stats: stats})
	if rep != nil {
		// Phases ran back to back inside the call; lay them out from the
		// op's start so the op's self time is what no phase covers.
		var at int64
		if s.tr != nil {
			at = s.tr.spans[id-1].StartNS
		}
		for _, p := range rep.Exec.Phases {
			s.tr.add("shard.phase_"+p.Name, id, s.opSeq, at, at+p.DurationNS)
			at += p.DurationNS
			acc.phases[p.Name] = append(acc.phases[p.Name], float64(p.DurationNS)/1e6)
		}
	}
	s.checkQuery(it, pairs, err)
	it.cycles++
}

func (s *session) mutateCycle(acc *roundAcc, it *instance) {
	timed := func(name string, fn func() error) time.Duration {
		id := s.opSpan(name)
		t := time.Now()
		err := fn()
		d := time.Since(t)
		s.tr.end(id)
		s.attempted++
		if err != nil {
			s.fail("%s: %v", name, err)
		}
		return d
	}
	acc.begin()
	before := it.P.IOStats().Writes
	for i := 0; i < updatesPerCycle; i++ {
		rec := liveRec{geom.Point{X: it.in.stream.Float64(), Y: it.in.stream.Float64()}, it.nextRef}
		it.nextRef++
		d := timed("op.insert", func() error { return it.P.Insert(rec.p, rec.ref) })
		acc.updateUS = append(acc.updateUS, us(d))
		it.live = append(it.live, rec)
	}
	for i := 0; i < updatesPerCycle; i++ {
		rec := it.live[it.head]
		it.head++
		d := timed("op.delete", func() error { return it.P.Delete(rec.p, rec.ref) })
		acc.updateUS = append(acc.updateUS, us(d))
	}
	acc.writes += it.P.IOStats().Writes - before

	id := s.opSpan("op")
	t := time.Now()
	pairs, stats, qerr := cpq.KClosestPairs(it.P, it.Q, s.w.k, s.qopts...)
	queryMS := ms(time.Since(t))
	s.tr.end(id)

	id = s.opSpan("op.self_cp")
	t = time.Now()
	self, _, serr := cpq.SelfClosestPair(it.P)
	acc.selfMS = append(acc.selfMS, ms(time.Since(t)))
	s.tr.end(id)
	seg := acc.end()

	acc.ops = append(acc.ops, opSample{inst: it.id, queryMS: queryMS, cycleMS: ms(seg.wall),
		cpuS: seg.cpu.Seconds(), allocB: seg.allocB, stats: stats})
	s.checkQuery(it, pairs, qerr)
	s.checkSelf(it, self, serr)
	it.cycles++
}

// measure runs cycles for about the given time in measureRounds equal
// rounds with an untimed GC before each, so a round's garbage does not
// bill the next.
func (s *session) measure(seconds float64, explain bool) phase {
	var ph phase
	for r := 0; r < measureRounds; r++ {
		acc := &roundAcc{phases: map[string][]float64{}}
		runtime.GC()
		deadline := time.Now().Add(time.Duration(seconds / measureRounds * float64(time.Second)))
		for len(acc.ops) == 0 || time.Now().Before(deadline) {
			s.cycle(acc, explain)
		}
		ph = append(ph, acc)
	}
	return ph
}

// outcome is everything a run reports.
type outcome struct {
	cfg       config
	inputHash string
	points    int
	samples   int
	attempted int
	failed    int
	notes     []string
	values    map[string]float64
	rounds    map[string][]float64
	tracer    *tracer // the traced run's spans
}

func (o *outcome) set(name string, v float64, rounds ...float64) {
	o.values[name] = v
	if len(rounds) > 1 {
		o.rounds[name] = rounds
	}
}

// runWorkload is one run: generate, set up, warm up and verify, measure,
// and with cfg.trace the traced pass and the layer probes.
func runWorkload(cfg config) (*outcome, error) {
	runtime.GOMAXPROCS(cfg.workers)
	w := cfg.w
	s := &session{cfg: cfg, w: w, qopts: w.queryOptions(cfg.workers)}
	out := &outcome{cfg: cfg, values: map[string]float64{}, rounds: map[string][]float64{}}
	if w.disk {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(cfg.dir)
	}
	defer func() { _ = s.closeIndexes() }() // error paths; the success path closes below

	var root int
	if cfg.trace {
		s.tr = newTracer()
		root = s.tr.begin("workload", 0, 0)
		s.phaseSpan = root
	}
	if err := s.setupAll(); err != nil {
		return nil, err
	}
	var hashes []string
	var pages []float64
	for _, it := range s.inst {
		hashes = append(hashes, it.in.hash)
		pages = append(pages, float64(it.pages))
	}
	out.inputHash, out.points = hashStrings(hashes), len(s.inst[0].in.p)
	out.set("setup_s", median(s.setupS), s.setupS...)
	out.set("index_mb", mean(pages)*pageSize/1e6)

	tracing := s.tr
	s.tr = nil // warm-up and the measure phase run with tracing off
	warm := &roundAcc{phases: map[string][]float64{}}
	for i := 0; i < warmupPerInst*len(s.inst); i++ {
		s.cycle(warm, false)
	}

	measureSeconds := cfg.seconds
	if cfg.trace {
		measureSeconds = cfg.seconds / 2
	}
	ph := s.measure(measureSeconds, false)
	out.set("peak_rss_mb", peakRSSMB())
	endToEndMetrics(out, ph)
	s.invariants(ph) // before layers, whose facade.error_rate counts every failed check

	if cfg.trace {
		s.tr = tracing
		s.phaseSpan = s.tr.begin("traced_pass", root, 0)
		traced := s.measure(cfg.seconds/8, w.shards > 1)
		s.tr.end(s.phaseSpan)
		s.phaseSpan = s.tr.begin("probes", root, 0)
		if err := s.layers(out, ph, traced); err != nil {
			return nil, err
		}
		s.tr.end(s.phaseSpan)
		s.tr.end(root)
		out.tracer = s.tr
	}

	if err := s.closeIndexes(); err != nil {
		return nil, err
	}
	out.samples = len(ph.ops())
	out.attempted, out.failed, out.notes = s.attempted, s.failed, s.notes
	return out, nil
}

// throughput is primary ops ÷ the wall of their timed cycles, in 1/s.
func throughput(ops []opSample) float64 {
	wallMS := 0.0
	for _, op := range ops {
		wallMS += op.cycleMS
	}
	return 1000 * float64(len(ops)) / wallMS
}

// endToEndMetrics derives the user-visible metrics of the measure phase.
// query_p10_ms is the undisturbed reading of one query; queries_per_s is a
// total ÷ ops, so it sees every op of the phase. The rounds beside each are
// the same summary over one round's ops, for -compare's spread.
func endToEndMetrics(out *outcome, ph phase) {
	ops := ph.ops()
	perRound := func(fn func([]opSample) float64) []float64 {
		vals := make([]float64, len(ph))
		for i, r := range ph {
			vals[i] = fn(r.ops)
		}
		return vals
	}
	out.set("query_p10_ms", robust(ops, opQueryMS),
		perRound(func(ops []opSample) float64 { return percentile(pickAll(ops, opQueryMS), robustQuantile) })...)
	out.set("queries_per_s", throughput(ops), perRound(throughput)...)
	out.set("alloc_mb_per_query", byInstance(ops, opAllocMB, mean),
		perRound(func(ops []opSample) float64 { return mean(pickAll(ops, opAllocMB)) })...)
}

// accessesPerQuery is Stats.Accesses() per query, the paper's cost metric.
func accessesPerQuery(ops []opSample) float64 {
	return byInstance(ops, func(op opSample) float64 { return float64(op.stats.Accesses()) }, mean)
}

// invariants asserts what must hold on any seed whatever the machine:
// counts, not times. A breach fails the run.
func (s *session) invariants(ph phase) {
	accesses := accessesPerQuery(ph.ops())
	switch {
	case !s.w.disk && !s.w.mutate && !s.w.parallel && s.w.shards <= 1:
		// The pool holds every page a repeated sequential query touches.
		s.attempted++
		if accesses != 0 {
			s.fail("invariant: accesses_per_query = %g on %s, want 0", accesses, s.w.name)
		}
	case s.w.disk && s.cfg.n == 0:
		// The working set is far above the 64-page pool.
		s.attempted++
		if accesses <= minDiskAccesses {
			s.fail("invariant: accesses_per_query = %g on %s, want > %d", accesses, s.w.name, minDiskAccesses)
		}
	}
}
