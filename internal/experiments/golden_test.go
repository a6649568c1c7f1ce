package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// compactionGolden renders the deterministic columns of three experiments
// that together exercise every merge mode of the compaction executor:
// Fig. 6 under the full policy, the levels sweep under full and leveled
// policies, and the expiry experiment under tiered retention. Timing
// columns are left out; everything printed is a pure function of the
// seeded workloads and the bytes the merges emit.
func compactionGolden() (string, error) {
	var b strings.Builder
	maint := []int{0, 10}
	f6, err := RunFig6(tinyFig5(), maint)
	if err != nil {
		return "", fmt.Errorf("fig6: %w", err)
	}
	fmt.Fprintln(&b, "# fig6 maint cp ops writes_per_op db_bytes physical_bytes")
	for _, m := range maint {
		for _, s := range f6.Series[m] {
			fmt.Fprintf(&b, "fig6 %d %d %d %.6f %d %d\n",
				m, s.CP, s.Ops, s.WritesPerOp, s.DBBytes, s.PhysicalBytes)
		}
	}

	lcfg := DefaultLevelsConfig()
	lcfg.Queries = 50
	lcfg.Fanouts = []int{4}
	lv, err := RunLevels(lcfg)
	if err != nil {
		return "", fmt.Errorf("levels: %w", err)
	}
	fmt.Fprintln(&b, "# levels policy compact_write_bytes write_amp runs max_level")
	for _, p := range lv.Points {
		fmt.Fprintf(&b, "levels %s %d %.6f %d %d\n",
			p.Policy, p.CompactWriteBytes, p.WriteAmp, p.Runs, p.MaxLevel)
	}

	ex, err := RunExpire(DefaultExpireConfig())
	if err != nil {
		return "", fmt.Errorf("expire: %w", err)
	}
	fmt.Fprintln(&b, "# expire path runs_reclaimed records_reclaimed bytes_read bytes_written")
	for _, p := range ex.Points {
		fmt.Fprintf(&b, "expire %s %d %d %d %d\n",
			p.Path, p.RunsReclaimed, p.RecordsReclaimed, p.BytesRead, p.BytesWritten)
	}
	return b.String(), nil
}

// TestCompactionGolden pins the bytes the full, leveled and tiered merge
// modes emit. testdata/compaction_golden.txt is the reference output, and
// a refactor of the compaction executor must reproduce it exactly: a
// mismatch is a behaviour change, never a reason to regenerate the file.
func TestCompactionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/compaction_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := compactionGolden()
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
