// Command perfbench is the repository's benchmark. It generates a seeded
// input stream with the paper's own generators (the synthetic workload
// of Section 6.2.1 and the EECS03-like trace of Section 6.2.2, both
// driving the fsim file system simulator), replays it through the public
// backlog.DB API in a closed loop, checks every block's owners against
// the simulator's tree-walk ground truth, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line of
// standard output. See README.md for the workloads and metrics.
//
//	perfbench -workload query -seed 1 -seconds 10 -trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/backlogfs/backlog"
)

// spec is one workload: the database configuration and the generator
// of its input stream. Every stream is replayed in order by one client
// on an in-memory database; the query workload's timed phase then runs
// readers clients.
type spec struct {
	cfg     backlog.Config
	gen     func(seed int64) (*stream, error)
	readers int
}

// clients is the number of client goroutines in the timed phase.
func (sp spec) clients() int { return max(sp.readers, 1) }

// The query workload follows the paper's Figure 9 as
// internal/experiments.DefaultFig9Config scales it: the synthetic
// workload for 120 consistency points of 1500 block operations, never
// maintained, then sets of 2048 queries (the paper's 8192, scaled) in
// sorted runs of 1, 10, 100 and 1000 allocated blocks. The page cache is
// kept far below the database's size; README.md gives both.
const (
	queryCPs        = 120
	queryOpsPerCP   = 1500
	querySet        = 2048
	queryCacheBytes = 256 << 10
	queryReaders    = 2
)

var queryRunLengths = []int{1, 10, 100, 1000}

// churnCfg replays the trace at internal/experiments.DefaultFig7Config's
// scale (96 hours, 600 operations per busy hour, 4 checkpoints per hour),
// maintains it every 8 hours (the shorter of Figure 8's two intervals)
// with Figure 10's query sets around each pass
// (internal/experiments.DefaultFig10Config: 1024 queries per run length
// 64, 128, 256 and 512), and takes the synthetic workload's clone rate
// (the paper's ~7 per 100 checkpoints, each living 20). After each pass
// a defragmenter relocates one run of Figure 10's shortest length. Setup
// preloads the first maintenance interval.
var churnCfg = churnConfig{
	hours: 96, preloadHours: 8, opsPerHour: 600, cpsPerHour: 4, maintainHours: 8,
	querySet: 1024, runLengths: []int{64, 128, 256, 512},
	clonesPer100CP: 7, cloneLifeCPs: 20, relocRun: 64,
}

var specs = map[string]spec{
	"query": {
		cfg: backlog.Config{Durability: backlog.DurabilityBuffered, CacheBytes: queryCacheBytes},
		gen: func(seed int64) (*stream, error) {
			return synthetic(seed, queryOpsPerCP, queryCPs, 0)
		},
		readers: queryReaders,
	},
	"churn": {
		cfg: backlog.Config{
			CompactionPolicy: backlog.PolicyLeveled,
			Retention:        backlog.RetainLive,
		},
		gen: func(seed int64) (*stream, error) { return churn(seed, churnCfg) },
	},
}

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"update_ops_per_cpu_s", "ops/s"},
	{"update_p50_us", "us"},
	{"update_p99_us", "us"},
	{"checkpoint_cpu_p50_ms", "ms"},
	{"checkpoint_cpu_tail_ms", "ms"},
	{"query_cpu_mean_us", "us"},
	{"query_cpu_p99_us", "us"},
	{"scan_blocks_per_cpu_s", "blocks/s"},
	{"maintain_cpu_s", "s"},
	{"recovery_cpu_s", "s"},
	{"write_amp", "ratio"},
	{"bytes_per_live_ref", "B"},
	{"db_heap_mb", "MB"},
	{"ok_frac", "ratio"},
}

func main() {
	name := flag.String("workload", "", "workload: query or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured time; rounds repeat until it is used up")
	trace := flag.Int("trace", 0, "1 runs alternate untraced and traced rounds and reports per-layer metrics")
	commit := flag.String("commit", "unknown", "commit of the code under test, recorded with the results")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for databases, spans and results")
	genTo := flag.String("gen-to", "", "only generate the workload's input and write it to this file")
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *genTo != "" {
		s, err := sp.gen(*seed)
		if err == nil {
			err = writeStreamFile(s, *genTo)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: generating input:", err)
			os.Exit(1)
		}
		return
	}
	// The replay runs on this goroutine, whose calls are timed with the
	// thread's CPU clock.
	runtime.LockOSThread()
	if err := checkCPUClocks(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: CPU clocks:", err)
		os.Exit(1)
	}
	if err := run(*name, sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *commit, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, sp spec, seed int64, budget time.Duration, traced bool, commit, out string) error {
	root := filepath.Join(out, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(root)

	r := &runner{name: name, sp: sp, root: root}
	epoch := time.Now()
	if traced {
		r.tr = newTracer(epoch, sp.clients())
	}
	var rounds []*roundResult
	var reopened dbSnap
	// Of round 0's input only the ground truth is kept: the recovery
	// database is checked against it after the last round.
	var first *truth
	var firstStream map[string]int
	var runErr error
	for i := 0; runErr == nil; i++ {
		w, err := r.load(subSeed(seed, i))
		if err != nil {
			runErr = fmt.Errorf("generating input: %w", err)
			break
		}
		if i == 0 {
			first = w.s.truth
			firstStream = map[string]int{
				"updates": w.s.updates(), "ground_truth_blocks": len(first.allocated), "ground_truth_refs": first.refs,
			}
			if err := r.prepareRecovery(w.s, traced); err != nil {
				runErr = fmt.Errorf("recovery: %w", err)
				break
			}
		}
		res, err := r.round(i, traced && i%2 == 1, w)
		if err != nil {
			runErr = fmt.Errorf("round %d: %w", i, err)
			break
		}
		rounds = append(rounds, res)
		done := time.Since(epoch) >= budget && (!traced || i >= 1)
		var check *truth
		if done {
			check = first
		}
		if reopened, err = r.reopen(opensPerRound, check); err != nil {
			runErr = fmt.Errorf("recovery: %w", err)
		}
		if done {
			break
		}
	}
	measured := time.Since(epoch)

	attempted, failed := r.attempted, r.failed
	correct := runErr == nil
	var metrics map[string]float64
	var counts map[string]int
	if correct {
		if traced {
			metrics = r.layers(rounds, reopened)
		} else {
			metrics, counts = endToEndMetrics(rounds, r.opens, attempted, failed)
		}
	}
	res := result{Correct: correct, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, d := range layerDefs {
			res.Metrics[d.name] = metricValue{metrics[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{metrics[d.name], d.unit}
		}
	}

	settings := map[string]any{
		"workload": name, "seed": seed, "commit": commit, "source_sha256": sourceDigest("."),
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(), "go": runtime.Version(),
		"clients": sp.clients(), "in_memory": true, "durability": sp.cfg.Durability.String(), "recovery_durability": r.recCfg.Durability.String(),
		"write_shards":                      "default (GOMAXPROCS)",
		"cache_bytes":                       cacheBytes(sp.cfg),
		"db_bytes_timed_phase_median":       medianOf(rounds, func(x *roundResult) float64 { return float64(x.mainBytes) }),
		"db_bytes_after_maintenance_median": medianOf(rounds, func(x *roundResult) float64 { return float64(x.dbBytes) }),
		"compaction_policy":                 sp.cfg.CompactionPolicy.String(), "retention": retentionName(sp.cfg.Retention),
		"trace": traced, "rounds": len(rounds), "measured_s": measured.Seconds(), "generate_s": r.genTime.Seconds(),
		"samples": counts, "minor_faults": minorFaults(), "per_round": perRound(rounds),
	}
	if firstStream != nil {
		settings["first_stream"] = firstStream
	}
	if traced {
		fmt.Println()
		printLayerTable(os.Stdout, name, metrics)
		spans := filepath.Join(out, fmt.Sprintf("spans-%s.csv", name))
		if err := r.tr.write(spans); err != nil {
			return err
		}
		settings["spans_file"] = spans
	}
	if err := writeResults(out, name, seed, traced, settings, res); err != nil {
		return err
	}
	raw, _ := json.Marshal(settings)
	fmt.Printf("settings %s\n", raw)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return runErr
}

// subSeed derives round i's input seed from the run's seed. Every round
// replays a fresh stream, so a run's medians sample the generator's
// spread of inputs instead of resting on one draw.
func subSeed(seed int64, i int) int64 { return seed<<16 + int64(i) }

func writeResults(out, name string, seed int64, traced bool, settings map[string]any, res result) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	raw, err := json.MarshalIndent(map[string]any{"settings": settings, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, t)), raw, 0o644)
}

func cacheBytes(cfg backlog.Config) int64 {
	if cfg.CacheBytes == 0 {
		return 32 << 20
	}
	return cfg.CacheBytes
}

func retentionName(r backlog.RetentionPolicy) string {
	if r == backlog.RetainLive {
		return "live"
	}
	return "all"
}

// sourceDigest hashes the Go sources and module files under root, so
// results from a checkout without version control still name the code
// they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func medianOf(rounds []*roundResult, f func(*roundResult) float64) float64 {
	xs := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		if !r.traced {
			xs = append(xs, f(r))
		}
	}
	return median(xs)
}

// endToEndMetrics reports the median over the untraced rounds of each
// round's figure; the checkpoint percentiles, the query mean and the scan
// rate over all of those rounds' calls pooled; and recovery_cpu_s as the
// median of every reopen.
func endToEndMetrics(rounds []*roundResult, opens []time.Duration, attempted, failed int) (map[string]float64, map[string]int) {
	med := func(f func(*roundResult) float64) float64 { return medianOf(rounds, f) }
	var recovery []float64
	for _, d := range opens {
		recovery = append(recovery, d.Seconds())
	}
	// The checkpoint tail pools the untraced rounds' checkpoints: one
	// round has too few for a p99, and the median of per-round tails
	// moved with how many checkpoints met a garbage collection. The
	// checkpoint p50, the query mean and the scan rate pool them too: a
	// round's figure moves with its stream by 15-40% (the scan rate most),
	// and over ten runs the pooled figures spread less than the medians
	// of the rounds' figures.
	var cps samples
	var qCPU, qN, scanCPU, scanBlocks float64
	for _, r := range rounds {
		if !r.traced {
			cps.merge(&r.cps)
			qCPU += r.qMean * float64(r.qN)
			qN += float64(r.qN)
			scanCPU += r.scanCPU.Seconds()
			scanBlocks += float64(r.scanBlocks)
		}
	}
	m := map[string]float64{
		"setup_s":                med(func(r *roundResult) float64 { return r.setup.Seconds() }),
		"update_ops_per_cpu_s":   med(func(r *roundResult) float64 { return r.updRate }),
		"update_p50_us":          med(func(r *roundResult) float64 { return r.updP50 / 1e3 }),
		"update_p99_us":          med(func(r *roundResult) float64 { return r.updP99 / 1e3 }),
		"checkpoint_cpu_p50_ms":  cps.quantile(0.5) / 1e6,
		"checkpoint_cpu_tail_ms": cps.quantile(cpTailQ) / 1e6,
		"query_cpu_mean_us":      ratio(qCPU, qN) / 1e3,
		"query_cpu_p99_us":       med(func(r *roundResult) float64 { return r.qP99 / 1e3 }),
		"scan_blocks_per_cpu_s":  ratio(scanBlocks, scanCPU),
		"maintain_cpu_s":         med(func(r *roundResult) float64 { return r.maintain.Seconds() }),
		"recovery_cpu_s":         median(recovery),
		"write_amp":              med(func(r *roundResult) float64 { return r.writeAmp }),
		"bytes_per_live_ref":     med(func(r *roundResult) float64 { return r.bytesPerLiveRef }),
		"db_heap_mb":             med(func(r *roundResult) float64 { return float64(r.heapBytes) / (1 << 20) }),
		"ok_frac":                1 - ratio(float64(failed), float64(attempted)),
	}
	first := rounds[0]
	counts := map[string]int{
		"rounds_untraced":                  countUntraced(rounds),
		"update_per_round":                 first.updN,
		"checkpoint_per_round":             first.cpN,
		"checkpoint_pooled_for_tail":       cps.n(),
		"checkpoint_beyond_tail":           cps.n() - int(math.Ceil(cpTailQ*float64(cps.n()))),
		"checkpoint_tail_percentile_x1000": int(cpTailQ * 1000),
		"query_per_round":                  first.qN,
		"scan_blocks_per_round":            first.scanBlocks,
		"recovery_opens":                   len(recovery),
	}
	return m, counts
}

func countUntraced(rounds []*roundResult) int {
	n := 0
	for _, r := range rounds {
		if !r.traced {
			n++
		}
	}
	return n
}

// minorFaults is the number of page faults the process has taken that
// needed no I/O. Each costs the fault's handling, and on a virtual
// machine whose free memory goes back to the host, often a fault in the
// host as well.
func minorFaults() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Minflt
}

// perRound lists each round's main figures, in the end-to-end metrics'
// units, so a run's spread over time can be read from its results file.
func perRound(rounds []*roundResult) []map[string]any {
	var out []map[string]any
	for _, r := range rounds {
		out = append(out, map[string]any{
			"traced": r.traced, "setup_s": r.setup.Seconds(), "update_ops_per_cpu_s": r.updRate,
			"update_p50_us": r.updP50 / 1e3, "checkpoint_cpu_p50_ms": r.cpP50 / 1e6,
			"query_cpu_mean_us": r.qMean / 1e3, "query_cpu_p99_us": r.qP99 / 1e3,
			"scan_blocks_per_cpu_s": r.scanRate, "scan_blocks": r.scanBlocks, "maintain_cpu_s": r.maintain.Seconds(),
			"db_bytes": r.dbBytes,
		})
	}
	return out
}
