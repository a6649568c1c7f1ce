package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"github.com/backlogfs/backlog"
)

// replayAndCheck replays a stream into an in-memory database and runs
// both ground-truth checks.
func replayAndCheck(t *testing.T, s *stream) error {
	t.Helper()
	db, err := backlog.Open(backlog.Config{InMemory: true, Durability: backlog.DurabilityBuffered})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var ph phase
	if err := replaySeq(db, s.events, &ph, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.truth.checkPoint(db); err != nil {
		return err
	}
	_, _, err = s.truth.checkScan(db)
	return err
}

// TestCheckCatchesDroppedRemove drops one generated RemoveRef before
// replay: the correctness check must then fail the run. The intact
// stream must pass.
func TestCheckCatchesDroppedRemove(t *testing.T) {
	for _, gen := range []func() (*stream, error){
		func() (*stream, error) { return synthetic(7, 500, 2, 20) },
		func() (*stream, error) {
			return churn(7, churnConfig{hours: 12, preloadHours: 2, opsPerHour: 300, cpsPerHour: 2, maintainHours: 4,
				querySet: 64, runLengths: []int{8, 16}, clonesPer100CP: 25, cloneLifeCPs: 8, relocRun: 16})
		},
	} {
		s, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if err := replayAndCheck(t, s); err != nil {
			t.Fatalf("intact stream failed the check: %v", err)
		}
		mid := len(s.events) / 2
		i := mid + slices.IndexFunc(s.events[mid:], func(e event) bool { return e.op == opRemove && e.line == 0 })
		if i < mid {
			t.Fatal("no line-0 RemoveRef in the second half of the stream")
		}
		s.events = slices.Delete(s.events, i, i+1)
		if err := replayAndCheck(t, s); err == nil {
			t.Fatalf("stream with RemoveRef %+v dropped passed the check", s.events[i])
		} else {
			t.Logf("dropped RemoveRef detected: %v", err)
		}
	}
}

// TestStreamFileRoundTrip checks that the child process's stream file
// reproduces the generated stream.
func TestStreamFileRoundTrip(t *testing.T) {
	s, err := synthetic(3, 300, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/stream"
	if err := writeStreamFile(s, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := readStream(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.preload != s.preload || !slices.Equal(got.events, s.events) ||
		!slices.Equal(got.truth.keys, s.truth.keys) || !slices.Equal(got.truth.digest, s.truth.digest) ||
		!slices.Equal(got.truth.start, s.truth.start) || !slices.Equal(got.truth.allocated, s.truth.allocated) ||
		got.truth.maxBlock != s.truth.maxBlock || got.truth.refs != s.truth.refs {
		t.Fatal("stream file does not round-trip")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("workload %q is not defined", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i := range min(len(b.EndToEnd), len(endToEnd)) {
		if b.EndToEnd[i].Name != endToEnd[i].name || b.EndToEnd[i].Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
				i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(layerDefs) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(b.PerLayer), len(layerDefs))
	}
	for i := range min(len(b.PerLayer), len(layerDefs)) {
		d := layerDefs[i]
		if got := b.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %s [%s] %s", i, got, d.name, d.unit, d.better)
		}
	}
}
