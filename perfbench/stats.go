package main

import (
	"math"
	"slices"
	"time"
)

// samples holds every latency a run measured, in nanoseconds.
type samples struct{ ns []uint32 }

func (s *samples) add(d time.Duration) {
	s.ns = append(s.ns, uint32(min(d.Nanoseconds(), math.MaxUint32)))
}

func (s *samples) merge(o *samples) { s.ns = append(s.ns, o.ns...) }

func (s *samples) n() int { return len(s.ns) }

// mean returns the mean in nanoseconds.
func (s *samples) mean() float64 {
	if len(s.ns) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.ns {
		sum += float64(v)
	}
	return sum / float64(len(s.ns))
}

// quantile returns the q-quantile in nanoseconds by the nearest-rank
// method; it sorts the samples in place.
func (s *samples) quantile(q float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	slices.Sort(s.ns)
	i := int(math.Ceil(q*float64(len(s.ns)))) - 1
	return float64(s.ns[max(i, 0)])
}

// cpTailQ is the percentile checkpoint_cpu_tail_ms reports, over the
// checkpoints of all of a run's untraced rounds: the highest of p99.9,
// p99, p95, p90 that leaves at least ten of them beyond it in a run of
// either workload (about 1900 checkpoints on query, 6000 on churn). It is
// fixed rather than chosen per run, so a run that fits fewer rounds does
// not report a different percentile.
const cpTailQ = 0.99

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
