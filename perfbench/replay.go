package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/backlogfs/backlog"
)

// phase accumulates what the benchmark measures while it replays calls
// into the database.
type phase struct {
	updates    int
	update     samples
	cp         samples
	query      samples
	owners     int           // owner records returned by point queries
	scanBlocks int           // blocks visited by range scans
	scanCPU    time.Duration // CPU time inside range scans
	maintain   time.Duration
	calls      int // DB calls attempted
}

// heapBytes is the memory the phase's latency samples hold.
func (ph *phase) heapBytes() int64 {
	return 4 * int64(cap(ph.update.ns)+cap(ph.cp.ns)+cap(ph.query.ns))
}

// apply makes one non-update call. Query latencies go to ph.
func apply(db *backlog.DB, e event, ph *phase, tr *tracer, client int) error {
	ph.calls++
	cat := db.Catalog()
	var err error
	switch e.op {
	case opQuery:
		t0, c0 := time.Now(), threadCPU()
		var owners []backlog.Owner
		owners, err = db.Query(e.block)
		ph.query.add(threadCPU() - c0)
		ph.owners += len(owners)
		tr.span(spanQuery, client, t0, time.Since(t0))
	case opRelocate:
		t0 := time.Now()
		err = db.RelocateBlock(e.block, relocBase+uint64(e.ino))
		tr.span(spanRelocate, client, t0, time.Since(t0))
	case opSnapshot:
		err = cat.CreateSnapshot(uint64(e.line), e.block)
	case opDropSnapshot:
		err = cat.DeleteSnapshot(uint64(e.line), e.block)
	case opClone:
		err = cat.CreateClone(uint64(e.ino), uint64(e.line), e.block)
	case opDropLine:
		err = cat.DeleteLine(uint64(e.line))
	case opCheckpoint:
		t0, c0 := time.Now(), procCPU()
		err = db.Checkpoint(e.block)
		ph.cp.add(procCPU() - c0)
		tr.span(spanCheckpoint, client, t0, time.Since(t0))
	case opMaintain:
		t0, c0 := time.Now(), procCPU()
		err = db.Maintain()
		ph.maintain += procCPU() - c0
		tr.span(spanMaintain, client, t0, time.Since(t0))
	default:
		err = fmt.Errorf("unexpected opcode %d", e.op)
	}
	return err
}

// updates replays AddRef/RemoveRef calls, timing each one.
func updates(db *backlog.DB, evs []event, lat *samples, tr *tracer, client int) {
	for _, e := range evs {
		t0 := time.Now()
		if e.op == opAdd {
			db.AddRef(e.ref(), uint64(e.cp))
		} else {
			db.RemoveRef(e.ref(), uint64(e.cp))
		}
		d := time.Since(t0)
		lat.add(d)
		tr.span(spanUpdate, client, t0, d)
	}
}

// replaySeq replays a stream in order on one client: the closed loop of
// a file system that calls Backlog inline and waits.
func replaySeq(db *backlog.DB, evs []event, ph *phase, tr *tracer) error {
	for i := 0; i < len(evs); {
		j := i
		for j < len(evs) && evs[j].isUpdate() {
			j++
		}
		updates(db, evs[i:j], &ph.update, tr, 0)
		ph.updates += j - i
		ph.calls += j - i
		if j == len(evs) {
			break
		}
		if err := apply(db, evs[j], ph, tr, 0); err != nil {
			return err
		}
		i = j + 1
	}
	return nil
}

// queryOp is one sorted run of the query workload: its blocks queried
// one by one with DB.Query, or its whole span read by one DB.QueryRange
// call.
type queryOp struct {
	run  []uint64
	scan bool
}

// queryPlan deals the Figure 9 protocol out to the clients, run by run
// in turn: for each run length, a set of querySet point queries in
// sorted runs, then a set of other sorted runs covering as many
// allocated blocks, each read by one range scan.
func queryPlan(allocated []uint64, seed int64, clients int) [][]queryOp {
	rng := rand.New(rand.NewSource(seed ^ 0x9e47))
	plan := make([][]queryOp, clients)
	k := 0
	for _, l := range queryRunLengths {
		for _, scan := range []bool{false, true} {
			for _, run := range sortedRuns(allocated, rng, querySet, l) {
				plan[k%clients] = append(plan[k%clients], queryOp{run: run, scan: scan})
				k++
			}
		}
	}
	return plan
}

// runQueries replays the plan with one goroutine per client and checks
// every result against the ground truth.
func runQueries(db *backlog.DB, t *truth, plan [][]queryOp, ph *phase, tr *tracer) error {
	parts := make([]phase, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for c := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = queryClient(db, t, plan[c], &parts[c], tr, c)
		}()
	}
	wg.Wait()
	for c := range parts {
		p := &parts[c]
		ph.query.merge(&p.query)
		ph.owners += p.owners
		ph.scanBlocks += p.scanBlocks
		ph.scanCPU += p.scanCPU
		ph.calls += p.calls
	}
	return errors.Join(errs...)
}

func queryClient(db *backlog.DB, t *truth, ops []queryOp, ph *phase, tr *tracer, client int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var bad mismatches
	var visited ownerBuf
	for _, op := range ops {
		if !op.scan {
			for _, b := range op.run {
				ph.calls++
				t0, c0 := time.Now(), threadCPU()
				owners, err := db.Query(b)
				c := threadCPU() - c0
				d := time.Since(t0)
				if err != nil {
					return fmt.Errorf("Query(%d): %w", b, err)
				}
				ph.query.add(c)
				ph.owners += len(owners)
				tr.span(spanQuery, client, t0, d)
				if ok, why := t.match(b, owners); !ok {
					bad.add(why)
				}
			}
			continue
		}
		ph.calls++
		from, n := op.run[0], int(op.run[len(op.run)-1]-op.run[0]+1)
		visited.reset()
		t0, c0 := time.Now(), threadCPU()
		err := db.QueryRange(from, n, visited.add)
		c := threadCPU() - c0
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("QueryRange(%d, %d): %w", from, n, err)
		}
		ph.scanBlocks += n
		ph.scanCPU += c
		tr.span(spanScan, client, t0, d)
		visited.check(t, from, n, &bad)
	}
	return bad.err()
}
