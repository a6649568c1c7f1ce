package main

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/backlogfs/backlog"
	"github.com/backlogfs/backlog/internal/fsim"
)

// ownerKey is one ground-truth reference: (inode, offset, line) in a
// retained snapshot version or, with version fsim.LiveVersion, in a live
// image.
type ownerKey struct {
	ino, off, line, version uint64
}

// compareKeys orders keys by inode, offset, line and version.
func compareKeys(a, b ownerKey) int {
	return cmp.Or(cmp.Compare(a.ino, b.ino), cmp.Compare(a.off, b.off), cmp.Compare(a.line, b.line), cmp.Compare(a.version, b.version))
}

func (k ownerKey) hash() uint64 {
	h := k.ino*0x9e3779b97f4a7c15 ^ k.off*0xc2b2ae3d27d4eb4f ^ k.line*0x165667b19e3779f9 ^ k.version*0xd6e8feb86659fd93
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h
}

// truth is the fsim tree-walk ground truth (fsim.ExpectedBackrefs) in a
// pointer-free layout. Slot s is block s for s < maxBlock and relocation
// target relocBase+(s-maxBlock) above; keys[start[s]:start[s+1]] are the
// slot's owners and digest[s] is the sum of their hashes, so a query
// result is checked without building a set unless the digests differ.
type truth struct {
	maxBlock  uint64
	relocated uint64
	start     []uint32
	keys      []ownerKey
	digest    []uint64
	allocated []uint64 // blocks with at least one owner, ascending
	// refs counts the distinct references (block, inode, offset) of line
	// 0, the original volume, that its live image or a retained snapshot
	// still holds: each needs at least one record in the database. Clone
	// lines are left out because the database stores their inherited
	// references implicitly, at no cost.
	refs int
}

func newTruth(fs *fsim.FS) *truth {
	exp := fs.ExpectedBackrefs()
	t := &truth{maxBlock: fs.MaxBlock()}
	for b := range exp {
		if b >= relocBase {
			t.relocated = max(t.relocated, b-relocBase+1)
		}
	}
	n := t.maxBlock + t.relocated
	t.start = make([]uint32, n+1)
	t.digest = make([]uint64, n)
	for s := uint64(0); s < n; s++ {
		t.start[s] = uint32(len(t.keys))
		owners := exp[t.block(s)]
		if len(owners) == 0 {
			continue
		}
		t.allocated = append(t.allocated, t.block(s))
		for k := range owners {
			key := ownerKey{ino: k.Ino, off: k.Off, line: k.Line, version: k.Version}
			t.keys = append(t.keys, key)
			t.digest[s] += key.hash()
		}
		keys := t.keys[t.start[s]:]
		slices.SortFunc(keys, compareKeys)
		for j, k := range keys {
			if k.line == 0 && (j == 0 || k.ino != keys[j-1].ino || k.off != keys[j-1].off || k.line != keys[j-1].line) {
				t.refs++
			}
		}
	}
	t.start[n] = uint32(len(t.keys))
	return t
}

func (t *truth) slots() uint64 { return uint64(len(t.digest)) }

func (t *truth) block(slot uint64) uint64 {
	if slot < t.maxBlock {
		return slot
	}
	return relocBase + slot - t.maxBlock
}

func (t *truth) slot(block uint64) (uint64, bool) {
	switch {
	case block < t.maxBlock:
		return block, true
	case block >= relocBase && block-relocBase < t.relocated:
		return t.maxBlock + block - relocBase, true
	}
	return 0, false
}

// appendKeys appends the owner keys a query result holds.
func appendKeys(keys []ownerKey, owners []backlog.Owner) []ownerKey {
	for _, o := range owners {
		for _, v := range o.Versions {
			keys = append(keys, ownerKey{o.Inode, o.Offset, o.Line, v})
		}
		if o.Live {
			keys = append(keys, ownerKey{o.Inode, o.Offset, o.Line, fsim.LiveVersion})
		}
	}
	return keys
}

// match reports whether a query result for block equals the ground truth
// as a set of owner keys, and describes the first difference if not.
func (t *truth) match(block uint64, owners []backlog.Owner) (bool, string) {
	return t.matchKeys(block, appendKeys(nil, owners))
}

// matchKeys is match on the result's owner keys; it may reorder got.
func (t *truth) matchKeys(block uint64, got []ownerKey) (bool, string) {
	slot, ok := t.slot(block)
	var want []ownerKey
	if ok {
		var sum uint64
		for _, k := range got {
			sum += k.hash()
		}
		if sum == t.digest[slot] {
			return true, ""
		}
		want = t.keys[t.start[slot]:t.start[slot+1]]
	}
	slices.SortFunc(got, compareKeys)
	got = slices.Compact(got)
	for _, k := range want {
		if _, found := slices.BinarySearchFunc(got, k, compareKeys); !found {
			return false, fmt.Sprintf("block %d: missing %+v", block, k)
		}
	}
	for _, k := range got {
		if _, found := slices.BinarySearchFunc(want, k, compareKeys); !found {
			return false, fmt.Sprintf("block %d: spurious %+v", block, k)
		}
	}
	return true, ""
}

// ownerBuf is a QueryRange visitor that only copies what it is shown, so
// the comparison with the ground truth runs after the call's timer has
// stopped.
type ownerBuf struct {
	blocks []uint64
	ends   []int // keys[ends[i-1]:ends[i]] are blocks[i]'s owner keys
	keys   []ownerKey
}

func (o *ownerBuf) reset() { o.blocks, o.ends, o.keys = o.blocks[:0], o.ends[:0], o.keys[:0] }

func (o *ownerBuf) add(b uint64, owners []backlog.Owner) bool {
	o.keys = appendKeys(o.keys, owners)
	o.blocks = append(o.blocks, b)
	o.ends = append(o.ends, len(o.keys))
	return true
}

// check compares every visited block with the ground truth, and the
// visited blocks with the n blocks from block from that the call was
// asked for.
func (o *ownerBuf) check(t *truth, from uint64, n int, bad *mismatches) {
	prev := 0
	for i, b := range o.blocks {
		if b != from+uint64(i) {
			bad.add(fmt.Sprintf("QueryRange(%d, %d) visited block %d in place %d", from, n, b, i))
			return
		}
		if ok, why := t.matchKeys(b, o.keys[prev:o.ends[i]]); !ok {
			bad.add(why)
		}
		prev = o.ends[i]
	}
	if len(o.blocks) != n {
		bad.add(fmt.Sprintf("QueryRange(%d, %d) visited %d blocks", from, n, len(o.blocks)))
	}
}

// mismatches collects the first few differences a check finds.
type mismatches []string

func (m *mismatches) add(s string) {
	if len(*m) < 10 {
		*m = append(*m, s)
	}
}

func (m mismatches) err() error {
	if len(m) == 0 {
		return nil
	}
	return fmt.Errorf("ground-truth mismatch:\n  %s", strings.Join(m, "\n  "))
}

// checkPoint queries every slot's block with DB.Query and compares the
// result with the ground truth.
func (t *truth) checkPoint(db *backlog.DB) error {
	var bad mismatches
	for s := uint64(1); s < t.slots(); s++ {
		b := t.block(s)
		owners, err := db.Query(b)
		if err != nil {
			return fmt.Errorf("Query(%d): %w", b, err)
		}
		if ok, why := t.match(b, owners); !ok {
			bad.add(why)
		}
	}
	return bad.err()
}

// scanWindow is the block count of one QueryRange call in scans.
const scanWindow = 4096

// checkScan reads every slot's block with DB.QueryRange in sequential
// windows and compares each result with the ground truth. It returns the
// blocks visited and the CPU time spent inside QueryRange.
func (t *truth) checkScan(db *backlog.DB) (blocks int, inside time.Duration, err error) {
	var bad mismatches
	var visited ownerBuf
	scan := func(from, n uint64) error {
		for off := uint64(0); off < n; off += scanWindow {
			w := min(scanWindow, n-off)
			visited.reset()
			c0 := threadCPU()
			err := db.QueryRange(from+off, int(w), visited.add)
			inside += threadCPU() - c0
			if err != nil {
				return fmt.Errorf("QueryRange(%d, %d): %w", from+off, w, err)
			}
			blocks += int(w)
			visited.check(t, from+off, int(w), &bad)
		}
		return nil
	}
	if err := scan(1, t.maxBlock-1); err != nil {
		return 0, 0, err
	}
	if err := scan(relocBase, t.relocated); err != nil {
		return 0, 0, err
	}
	return blocks, inside, bad.err()
}
