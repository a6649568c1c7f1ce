package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/backlogfs/backlog"
)

// runner replays one workload's rounds.
type runner struct {
	name string
	sp   spec
	root string
	tr   *tracer

	attempted, failed int
	layerRounds       []map[string]float64
	genTime           time.Duration

	recCfg backlog.Config  // the recovery database
	opens  []time.Duration // its Open times
}

// work is one round's input: the generated stream, and the query plan
// on the query workload.
type work struct {
	s    *stream
	plan [][]queryOp
}

// load generates and prepares the input of one round.
func (r *runner) load(seed int64) (*work, error) {
	t0 := time.Now()
	defer func() { r.genTime += time.Since(t0) }()
	s, err := generate(r.name, seed, filepath.Join(r.root, "stream"))
	if err != nil {
		return nil, err
	}
	w := &work{s: s}
	if r.sp.readers > 0 {
		w.plan = queryPlan(s.truth.allocated, seed, r.sp.readers)
	}
	return w, nil
}

func (s *stream) updates() int {
	n := 0
	for _, e := range s.events {
		if e.isUpdate() {
			n++
		}
	}
	return n
}

// roundResult is what one round measured. Latency percentiles are
// taken per round; a run reports their median over its rounds, so a
// burst of interference from outside the process moves one round, not
// the result.
type roundResult struct {
	traced          bool
	setup           time.Duration // CPU time, as are the figures below but updP50 and updP99
	updRate         float64       // updates per second of replay CPU time
	updP50, updP99  float64       // ns of wall time
	cpP50           float64       // ns
	qMean, qP99     float64       // ns
	scanRate        float64       // blocks per second inside QueryRange calls
	maintain        time.Duration
	writeAmp        float64
	bytesPerLiveRef float64
	dbBytes         int64         // after the closing maintenance pass
	mainBytes       int64         // at the end of the timed phase
	updN, cpN, qN   int           // samples behind the percentiles
	scanBlocks      int           // blocks behind scanRate
	scanCPU         time.Duration // the CPU time they took
	heapBytes       int64         // the database's live heap, at its larger reading
	cps             samples       // checkpoint latencies, pooled over rounds for the tail
}

// config returns the workload's database configuration for a round.
func (r *runner) config(traced bool) backlog.Config {
	cfg := r.sp.cfg
	cfg.InMemory = true
	if traced {
		cfg.Metrics, cfg.MetricsSampleEvery = true, 1
	}
	return cfg
}

// replay feeds the database the stream's setup part (main false) or the
// rest of it (main true).
func (w *work) replay(db *backlog.DB, main bool, ph *phase, tr *tracer) error {
	if main {
		return replaySeq(db, w.s.events[w.s.preload:], ph, tr)
	}
	return replaySeq(db, w.s.events[:w.s.preload], ph, tr)
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// round runs setup, the timed phase and the closing maintenance pass
// and ground-truth checks on a fresh in-memory database. A traced round
// also records spans and the per-layer metrics.
func (r *runner) round(i int, traced bool, w *work) (res *roundResult, err error) {
	cfg := r.config(traced)
	var tr *tracer
	if traced {
		tr = r.tr
	}
	res = &roundResult{traced: traced}
	var build, main, check phase
	var in layerInput
	var db *backlog.DB
	defer func() {
		r.attempted += build.calls + main.calls + check.calls
		if err != nil {
			r.failed++
			if db != nil {
				db.Close()
			}
		}
	}()
	// The query workload's setup replays the whole stream; its updates
	// are the ones measured. Every other workload measures the updates
	// of its timed phase.
	in.updPhase = phaseMain
	if w.plan != nil {
		in.updPhase = phaseSetup
	}
	memStats := func(p phaseID, k int) {
		if traced && p == in.updPhase {
			runtime.ReadMemStats(&in.updMem[k])
		}
	}
	// The database's heap is the live heap at the end of setup and of the
	// timed phase, less the live heap before Open and the latency samples
	// the benchmark has gathered since. Every reading starts from a
	// collected heap, so the garbage of the round before lands on none.
	base := liveHeap()
	dbHeap := func() int64 { return liveHeap() - base - build.heapBytes() - main.heapBytes() }

	t0, c0 := tr.begin(i, phaseSetup), procCPU()
	build.calls++
	if db, err = backlog.Open(cfg); err != nil {
		return nil, err
	}
	memStats(phaseSetup, 0)
	cb := procCPU()
	err = w.replay(db, false, &build, tr)
	if err == nil && w.plan != nil {
		err = w.replay(db, true, &build, tr)
	}
	buildCPU := procCPU() - cb
	memStats(phaseSetup, 1)
	res.setup = procCPU() - c0
	tr.end(phaseSetup, t0)
	if err != nil {
		return nil, err
	}
	if traced {
		in.setup = snapshot(db)
	}
	res.heapBytes = dbHeap()

	memStats(phaseMain, 0)
	t0, c0 = tr.begin(i, phaseMain), procCPU()
	if w.plan != nil {
		err = runQueries(db, w.s.truth, w.plan, &main, tr)
	} else {
		err = w.replay(db, true, &main, tr)
	}
	mainCPU := procCPU() - c0
	mainWall := tr.end(phaseMain, t0)
	memStats(phaseMain, 1)
	if err != nil {
		return nil, err
	}
	if traced {
		in.main = snapshot(db)
	}
	res.heapBytes = max(res.heapBytes, dbHeap())
	upd, updCPU := &main, mainCPU
	if w.plan != nil {
		upd, updCPU = &build, buildCPU
	}
	res.mainBytes = db.SizeBytes()
	res.updRate = float64(upd.updates) / updCPU.Seconds()
	res.updN, res.updP50, res.updP99 = upd.update.n(), upd.update.quantile(0.5), upd.update.quantile(0.99)
	res.cpN, res.cpP50, res.cps = upd.cp.n(), upd.cp.quantile(0.5), upd.cp

	// Closing: a maintenance pass, the space figures, and the
	// ground-truth checks by point query and by range scan.
	t0 = tr.begin(i, phaseEnd)
	check.calls += 2
	tm, cm := time.Now(), procCPU()
	if err = db.Maintain(); err != nil {
		return nil, fmt.Errorf("Maintain: %w", err)
	}
	if _, err = db.Expire(); err != nil {
		return nil, fmt.Errorf("Expire: %w", err)
	}
	res.maintain = main.maintain + procCPU() - cm
	tr.span(spanMaintain, 0, tm, time.Since(tm))
	io := db.IOReport()
	res.writeAmp = ratio(float64(io.TotalWriteBytes), float64(io.UserBytes))
	res.dbBytes = db.SizeBytes()
	res.bytesPerLiveRef = ratio(float64(res.dbBytes), float64(w.s.truth.refs))
	if traced {
		in.end = snapshot(db)
	}
	// Point-query latency comes from the timed phase, where both
	// workloads query; scan throughput from the timed scans on query
	// and from the check's scan on churn.
	check.calls += int(w.s.truth.slots()) - 1
	if err = w.s.truth.checkPoint(db); err != nil {
		return nil, err
	}
	res.qN, res.qMean, res.qP99 = main.query.n(), main.query.mean(), main.query.quantile(0.99)
	check.calls += int((w.s.truth.maxBlock + w.s.truth.relocated + scanWindow - 1) / scanWindow)
	// Collect first: the scan's CPU time on churn must not include
	// collection work for the garbage the point check above made.
	runtime.GC()
	blocks, inside, err := w.s.truth.checkScan(db)
	if err != nil {
		return nil, err
	}
	if main.scanBlocks > 0 {
		blocks, inside = main.scanBlocks, main.scanCPU
	}
	res.scanBlocks, res.scanCPU, res.scanRate = blocks, inside, float64(blocks)/inside.Seconds()
	check.calls++
	err = db.Close()
	db = nil
	tr.end(phaseEnd, t0)
	if err != nil {
		return nil, err
	}

	if traced {
		in.clients = r.sp.clients()
		in.updates = upd.updates
		in.pointQueries, in.owners = main.query.n(), main.owners
		in.mainWall = mainWall
		in.spanSum, in.spanN = tr.sums(i)
		r.layerRounds = append(r.layerRounds, layerMetrics(in))
	}
	return res, nil
}

// opensPerRound is how many times the recovery database is reopened
// after each round. Spreading the opens over the run keeps one burst of
// outside interference from deciding recovery_cpu_s.
const opensPerRound = 3

// prepareRecovery replays the whole stream into a database in a
// directory and closes it. The database logs every update to its
// write-ahead log (Durability=Buffered, whatever the workload's rounds
// use) and every stream ends without its last Checkpoint call, so each
// later Open replays that un-checkpointed tail from the log.
func (r *runner) prepareRecovery(s *stream, traced bool) (err error) {
	r.recCfg = r.sp.cfg
	r.recCfg.Durability = backlog.DurabilityBuffered
	r.recCfg.Dir = filepath.Join(r.root, "recovery")
	if traced {
		r.recCfg.Metrics, r.recCfg.MetricsSampleEvery = true, 1
	}
	var ph phase
	defer func() {
		r.attempted += ph.calls
		if err != nil {
			r.failed++
		}
	}()
	ph.calls += 2
	db, err := backlog.Open(r.recCfg)
	if err != nil {
		return err
	}
	err = replaySeq(db, s.events, &ph, nil)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return err
}

// reopen times backlog.Open on the recovery database n times. Given the
// ground truth of the stream the database was built from, it runs a
// maintenance pass on the last instance, checks it against the ground
// truth, and returns the instance's own report from right after Open.
func (r *runner) reopen(n int, check *truth) (snap dbSnap, err error) {
	calls := 0
	defer func() {
		r.attempted += calls
		if err != nil {
			r.failed++
		}
	}()
	for k := 0; k < n; k++ {
		calls++
		// Collect first, so no Open pays for garbage made before it.
		runtime.GC()
		t0, c0 := time.Now(), procCPU()
		db, err := backlog.Open(r.recCfg)
		if err != nil {
			return snap, fmt.Errorf("reopen: %w", err)
		}
		r.opens = append(r.opens, procCPU()-c0)
		r.tr.span(spanRecovery, 0, t0, time.Since(t0))
		calls++
		if check == nil || k < n-1 {
			if err := db.Close(); err != nil {
				return snap, err
			}
			continue
		}
		snap = snapshot(db)
		calls += 1 + int(check.slots())
		if err = db.Maintain(); err == nil {
			err = check.checkPoint(db)
		}
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		return snap, err
	}
	return snap, nil
}

// layers reports the median of each per-layer metric over the traced
// rounds, the recovery step's figures, and the tracing overhead: traced
// against untraced update throughput (query latency on the query
// workload).
func (r *runner) layers(rounds []*roundResult, reopened dbSnap) map[string]float64 {
	out := map[string]float64{}
	for _, d := range layerDefs {
		var xs []float64
		for _, m := range r.layerRounds {
			xs = append(xs, m[d.name])
		}
		out[d.name] = median(xs)
	}
	out["recovery.records_replayed"] = float64(reopened.st.WALReplayed)
	out["recovery.read_bytes"] = float64(reopened.src("recovery").ReadBytes)
	side := func(traced bool, f func(*roundResult) float64) float64 {
		var xs []float64
		for _, x := range rounds {
			if x.traced == traced {
				xs = append(xs, f(x))
			}
		}
		return median(xs)
	}
	if r.sp.readers > 0 {
		mean := func(x *roundResult) float64 { return x.qMean }
		out["trace.overhead_frac"] = ratio(side(true, mean), side(false, mean)) - 1
	} else {
		rate := func(x *roundResult) float64 { return x.updRate }
		out["trace.overhead_frac"] = 1 - ratio(side(true, rate), side(false, rate))
	}
	return out
}
