package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/backlogfs/backlog"
)

// spanKind names the benchmark-side span around one kind of DB call.
type spanKind uint8

const (
	spanUpdate spanKind = iota
	spanCheckpoint
	spanQuery
	spanScan
	spanMaintain
	spanRelocate
	spanRecovery
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"update", "checkpoint", "query", "scan", "maintain", "relocate", "open"}

// phaseID names the part of a round a span belongs to; the phase is the
// span's parent.
type phaseID uint8

const (
	phaseSetup phaseID = iota
	phaseMain
	phaseEnd
	numPhases
)

var phaseNames = [numPhases]string{"setup", "main", "end"}

// span is one timed call into backlog.DB, in nanoseconds since the run
// started.
type span struct {
	start, dur int64
	round      uint16
	phase      phaseID
	kind       spanKind
	client     uint8
}

// tracer keeps the traced rounds' spans in memory, one buffer per
// client so clients never share one. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	round uint16
	phase phaseID
	bufs  [][]span
	// phases records each phase's own span: start and duration.
	phases []span
}

func newTracer(epoch time.Time, clients int) *tracer {
	return &tracer{epoch: epoch, bufs: make([][]span, clients)}
}

func (t *tracer) span(k spanKind, client int, t0 time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.bufs[client] = append(t.bufs[client], span{
		start: t0.Sub(t.epoch).Nanoseconds(), dur: d.Nanoseconds(),
		round: t.round, phase: t.phase, kind: k, client: uint8(client),
	})
}

// begin starts a phase; end closes it with its wall time.
func (t *tracer) begin(round int, p phaseID) time.Time {
	now := time.Now()
	if t != nil {
		t.round, t.phase = uint16(round), p
	}
	return now
}

func (t *tracer) end(p phaseID, t0 time.Time) time.Duration {
	d := time.Since(t0)
	if t != nil {
		t.phases = append(t.phases, span{start: t0.Sub(t.epoch).Nanoseconds(), dur: d.Nanoseconds(), round: t.round, phase: p})
	}
	return d
}

// sums returns the total and count of one round's spans per phase and
// kind.
func (t *tracer) sums(round int) (tot [numPhases][numSpanKinds]time.Duration, n [numPhases][numSpanKinds]int) {
	for _, b := range t.bufs {
		for _, s := range b {
			if int(s.round) == round {
				tot[s.phase][s.kind] += time.Duration(s.dur)
				n[s.phase][s.kind]++
			}
		}
	}
	return tot, n
}

// write stores every span as CSV: one row per phase span (kind "phase")
// and one per DB call, whose parent is the phase of the same round.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "round,phase,client,kind,start_ns,dur_ns")
	for _, s := range t.phases {
		fmt.Fprintf(w, "%d,%s,-,phase,%d,%d\n", s.round, phaseNames[s.phase], s.start, s.dur)
	}
	for _, b := range t.bufs {
		for _, s := range b {
			fmt.Fprintf(w, "%d,%s,%d,%s,%d,%d\n", s.round, phaseNames[s.phase], s.client, spanNames[s.kind], s.start, s.dur)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dbSnap is what the database exports about itself at one moment.
type dbSnap struct {
	st backlog.Stats
	ms backlog.MaintenanceStats
	io backlog.IOReport
	m  backlog.MetricsSnapshot
}

func snapshot(db *backlog.DB) dbSnap {
	return dbSnap{st: db.Stats(), ms: db.MaintenanceStats(), io: db.IOReport(), m: db.Metrics()}
}

func (s dbSnap) src(name string) backlog.SourceIO {
	for _, x := range s.io.Sources {
		if x.Source == name {
			return x
		}
	}
	return backlog.SourceIO{}
}

func (s dbSnap) hist(name string) backlog.HistogramSnapshot {
	h, _ := s.m.Histogram(name)
	return h
}

func (s dbSnap) counter(name string) float64 {
	v, _ := s.m.Counter(name)
	return float64(v)
}

func (s dbSnap) gauge(name string) float64 {
	v, _ := s.m.Gauge(name)
	return v
}

// layerInput is what one traced round hands to layerMetrics.
type layerInput struct {
	clients int
	// setup ends the setup phase, main the timed phase, and end the
	// closing maintenance pass.
	setup, main, end dbSnap
	// updPhase is the phase whose updates are measured (setup for query).
	updPhase     phaseID
	updMem       [2]runtime.MemStats
	updates      int
	pointQueries int
	owners       int
	mainWall     time.Duration
	spanSum      [numPhases][numSpanKinds]time.Duration
	spanN        [numPhases][numSpanKinds]int
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics of one traced round.
func layerMetrics(in layerInput) map[string]float64 {
	a, e := in.main, in.end
	m := map[string]float64{}
	updates := float64(a.st.RefsAdded + a.st.RefsRemoved)

	// Write store: an update's span minus the WAL append it waited for.
	walAppend := a.hist("backlog_wal_append_ns")
	updSpan := ratio(float64(in.spanSum[in.updPhase][spanUpdate]), float64(in.spanN[in.updPhase][spanUpdate]))
	m["memtree.update_us"] = (updSpan - ratio(float64(walAppend.Sum), float64(walAppend.Count))) / 1e3
	m["memtree.pruned_frac"] = ratio(float64(a.st.PrunedAdds+a.st.PrunedRemoves), updates)
	n := float64(in.updates)
	m["runtime.allocs_per_update"] = ratio(float64(in.updMem[1].Mallocs-in.updMem[0].Mallocs), n)
	m["runtime.alloc_bytes_per_update"] = ratio(float64(in.updMem[1].TotalAlloc-in.updMem[0].TotalAlloc), n)
	m["runtime.gc_pause_ms"] = float64(in.updMem[1].PauseTotalNs-in.updMem[0].PauseTotalNs) / 1e6

	wal := a.src("wal")
	appends := float64(a.st.WALAppends)
	m["wal.append_p50_us"] = walAppend.P50 / 1e3
	m["wal.append_p99_us"] = walAppend.P99 / 1e3
	m["wal.flush_p50_us"] = a.hist("backlog_wal_flush_ns").P50 / 1e3
	m["wal.records_per_batch"] = ratio(appends, float64(a.st.WALBatches))
	m["wal.writes_per_append"] = ratio(float64(wal.WriteOps), appends)
	m["wal.syncs_per_append"] = ratio(float64(wal.Syncs), appends)
	m["wal.bytes_per_append"] = ratio(float64(wal.WriteBytes), appends)

	cps := float64(a.st.Checkpoints)
	cpw := a.src("checkpoint")
	m["checkpoint.freeze_p50_us"] = a.hist("backlog_checkpoint_freeze_ns").P50 / 1e3
	m["checkpoint.install_p50_us"] = a.hist("backlog_checkpoint_install_ns").P50 / 1e3
	m["checkpoint.flush_p50_ms"] = a.hist("backlog_checkpoint_flush_ns").P50 / 1e6
	m["checkpoint.records_flushed"] = ratio(float64(a.st.RecordsFlushed), cps)
	m["checkpoint.write_bytes_per_record"] = ratio(float64(cpw.WriteBytes), float64(a.st.RecordsFlushed))
	m["checkpoint.syncs"] = ratio(float64(cpw.Syncs), cps)

	man := a.src("manifest")
	m["lsm.manifest_write_bytes"] = ratio(float64(man.WriteBytes), cps)
	m["lsm.manifest_syncs"] = ratio(float64(man.Syncs), cps)
	m["lsm.runs_live"] = a.gauge("backlog_runs_live")
	m["lsm.max_runs_per_partition"] = float64(a.ms.MaxRuns)

	// Page decode and the decoded-page cache, per block queried in the
	// setup and timed phases.
	blocks := float64(a.st.Queries)
	hits, misses := a.counter("backlog_decoded_cache_hits_total"), a.counter("backlog_decoded_cache_misses_total")
	qio := a.src("query")
	decode := a.hist("backlog_page_decode_ns")
	m["btree.cache_hit_frac"] = ratio(hits, hits+misses)
	m["btree.pages_decoded"] = ratio(misses, blocks)
	m["btree.page_decode_p50_us"] = decode.P50 / 1e3
	m["btree.read_bytes_per_block"] = ratio(float64(qio.ReadBytes), blocks)
	m["btree.read_ops_per_block"] = ratio(float64(qio.ReadOps), blocks)

	qSpan := ratio(float64(in.spanSum[phaseMain][spanQuery]), float64(in.spanN[phaseMain][spanQuery]))
	m["query.collect_us"] = (qSpan - ratio(float64(decode.Sum), blocks)) / 1e3
	m["query.owners_per_block"] = ratio(float64(in.owners), float64(in.pointQueries))

	// Maintenance: the passes of the timed phase (churn) and the closing
	// pass every round makes.
	comp := e.hist("backlog_compaction_ns")
	jobs, conflicts := float64(comp.Count), float64(e.ms.Conflicts)
	m["compact.time_s"] = float64(comp.Sum) / 1e9
	m["compact.jobs"] = jobs
	m["compact.conflict_frac"] = ratio(conflicts, jobs+conflicts)
	m["compact.read_bytes"] = float64(e.src("compaction").ReadBytes)
	m["compact.write_bytes"] = float64(e.src("compaction").WriteBytes)
	m["compact.purged_frac"] = ratio(float64(e.st.RecordsPurged), float64(e.st.RecordsFlushed))
	m["expire.time_ms"] = float64(e.hist("backlog_expire_ns").Sum) / 1e6
	m["expire.runs_dropped"] = float64(e.st.RunsExpired)
	m["expire.read_bytes"] = float64(e.src("expiry").ReadBytes)

	var syncs, writeOps uint64
	for _, s := range a.io.Sources {
		syncs += s.Syncs
		writeOps += s.WriteOps
	}
	m["storage.write_bytes"] = float64(a.io.TotalWriteBytes)
	m["storage.read_bytes"] = float64(a.io.TotalReadBytes)
	m["storage.write_ops"] = float64(writeOps)
	m["storage.syncs"] = float64(syncs)

	// Share of the clients' timed-phase time that no layer accounts for:
	// the benchmark's own loop, barrier waits, and the parts of
	// Checkpoint and Maintain outside their measured phases.
	s := in.setup
	d := func(name string) float64 { return float64(a.hist(name).Sum - s.hist(name).Sum) }
	sum := in.spanSum[phaseMain]
	attributed := float64(sum[spanUpdate]+sum[spanQuery]+sum[spanScan]+sum[spanRelocate]) +
		d("backlog_checkpoint_freeze_ns") + d("backlog_checkpoint_flush_ns") + d("backlog_checkpoint_install_ns") +
		d("backlog_compaction_ns") + d("backlog_expire_ns")
	m["trace.unattributed_frac"] = 1 - ratio(attributed, float64(in.mainWall)*float64(in.clients))
	return m
}

// layerDefs lists the per-layer metrics in report order, with the
// end-to-end metric each is expected to move.
var layerDefs = []struct{ name, unit, better, moves string }{
	{"memtree.update_us", "us", "lower", "update_ops_per_cpu_s on churn and query (setup); not query_cpu_mean_us"},
	{"memtree.pruned_frac", "ratio", "higher", "update_ops_per_cpu_s on churn and query (setup)"},
	{"runtime.allocs_per_update", "count", "lower", "update_ops_per_cpu_s on churn and query (setup)"},
	{"runtime.alloc_bytes_per_update", "B", "lower", "update_ops_per_cpu_s on churn and query (setup)"},
	{"runtime.gc_pause_ms", "ms", "lower", "update_p99_us on churn and query (setup)"},
	{"wal.append_p50_us", "us", "lower", "update_ops_per_cpu_s, update_p50_us on query (setup)"},
	{"wal.append_p99_us", "us", "lower", "update_p99_us on query (setup)"},
	{"wal.flush_p50_us", "us", "lower", "update_p99_us on query (setup)"},
	{"wal.records_per_batch", "count", "higher", "update_ops_per_cpu_s on query (setup)"},
	{"wal.writes_per_append", "count", "lower", "update_ops_per_cpu_s on query (setup)"},
	{"wal.syncs_per_append", "count", "lower", "update_p99_us under Sync (0 under Buffered)"},
	{"wal.bytes_per_append", "B", "lower", "write_amp on query"},
	{"checkpoint.freeze_p50_us", "us", "lower", "update_p99_us on churn"},
	{"checkpoint.install_p50_us", "us", "lower", "update_p99_us on churn"},
	{"checkpoint.flush_p50_ms", "ms", "lower", "checkpoint_cpu_p50_ms"},
	{"checkpoint.records_flushed", "count", "lower", "checkpoint_cpu_p50_ms, bytes_per_live_ref"},
	{"checkpoint.write_bytes_per_record", "B", "lower", "write_amp, bytes_per_live_ref"},
	{"checkpoint.syncs", "count", "lower", "checkpoint_cpu_p50_ms"},
	{"lsm.manifest_write_bytes", "B", "lower", "checkpoint_cpu_p50_ms"},
	{"lsm.manifest_syncs", "count", "lower", "checkpoint_cpu_p50_ms"},
	{"lsm.runs_live", "count", "lower", "query_cpu_p99_us on churn and query"},
	{"lsm.max_runs_per_partition", "count", "lower", "query_cpu_p99_us on churn and query"},
	{"btree.cache_hit_frac", "ratio", "higher", "query_cpu_mean_us, scan_blocks_per_cpu_s on query; not update_*"},
	{"btree.pages_decoded", "count", "lower", "query_cpu_mean_us, scan_blocks_per_cpu_s on query"},
	{"btree.page_decode_p50_us", "us", "lower", "query_cpu_mean_us, scan_blocks_per_cpu_s on query"},
	{"btree.read_bytes_per_block", "B", "lower", "query_cpu_mean_us, scan_blocks_per_cpu_s on query"},
	{"btree.read_ops_per_block", "count", "lower", "query_cpu_mean_us, scan_blocks_per_cpu_s on query"},
	{"query.collect_us", "us", "lower", "query_cpu_p99_us on query/churn"},
	{"query.owners_per_block", "count", "lower", "query_cpu_p99_us on query/churn"},
	{"compact.time_s", "s", "lower", "maintain_cpu_s"},
	{"compact.jobs", "count", "lower", "maintain_cpu_s"},
	{"compact.conflict_frac", "ratio", "lower", "maintain_cpu_s on churn"},
	{"compact.read_bytes", "B", "lower", "maintain_cpu_s"},
	{"compact.write_bytes", "B", "lower", "maintain_cpu_s, write_amp on churn"},
	{"compact.purged_frac", "ratio", "higher", "bytes_per_live_ref"},
	{"expire.time_ms", "ms", "lower", "maintain_cpu_s on churn"},
	{"expire.runs_dropped", "count", "higher", "bytes_per_live_ref on churn"},
	{"expire.read_bytes", "B", "lower", "maintain_cpu_s on churn"},
	{"recovery.records_replayed", "count", "lower", "recovery_cpu_s"},
	{"recovery.read_bytes", "B", "lower", "recovery_cpu_s"},
	{"storage.write_bytes", "B", "lower", "write_amp"},
	{"storage.read_bytes", "B", "lower", "query_cpu_mean_us on query"},
	{"storage.write_ops", "count", "lower", "write_amp, update_ops_per_cpu_s on query (setup)"},
	{"storage.syncs", "count", "lower", "checkpoint_cpu_p50_ms"},
	{"trace.unattributed_frac", "ratio", "lower", "(share of client time outside every layer)"},
	{"trace.overhead_frac", "ratio", "lower", "(traced vs untraced update_ops_per_cpu_s, or query_cpu_mean_us on query)"},
}

// printLayerTable writes the per-layer metrics of a workload, each next
// to the end-to-end metric it should move.
func printLayerTable(w io.Writer, workload string, vals map[string]float64) {
	fmt.Fprintf(w, "per-layer metrics, workload %s\n", workload)
	fmt.Fprintf(w, "  %-34s %14s %-6s  %s\n", "metric", "value", "unit", "should move")
	for _, d := range layerDefs {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s  %s\n", d.name, vals[d.name], d.unit, d.moves)
	}
}
