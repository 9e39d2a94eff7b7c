package experiments

import (
	"fmt"

	"domino/internal/config"
	"domino/internal/dram"
	"domino/internal/prefetch"
	"domino/internal/stats"
	"domino/internal/timing"
	"domino/internal/trace"
	"domino/internal/workload"
)

// The paper measures performance with the SimFlex multiprocessor sampling
// methodology: many short measurements from checkpointed state, reported
// with 95% confidence and an error below 4%. This file reproduces the
// statistical side of that methodology: a measurement is repeated over K
// independent samples (distinct generator seeds — distinct execution
// windows of the same workload), and the mean is reported with its 95%
// confidence half-width.

// CIResult is a sampled measurement: mean, 95% confidence half-width, and
// the per-sample values.
type CIResult struct {
	Mean    float64
	CI95    float64
	Samples []float64
}

// RelativeError returns the half-width as a fraction of the mean — the
// paper's "error of less than 4%" metric.
func (c CIResult) RelativeError() float64 {
	if c.Mean == 0 {
		return 0
	}
	return c.CI95 / c.Mean
}

// String renders "mean ± ci (err%)".
func (c CIResult) String() string {
	return fmt.Sprintf("%.3f ± %.3f (%.1f%%)", c.Mean, c.CI95, c.RelativeError()*100)
}

// SpeedupCI measures one prefetcher's speedup on one workload over k
// independent samples. Each sample perturbs the workload seed, modelling
// measurement from a different checkpoint of the same application.
func SpeedupCI(o Options, workloadName, prefetcher string, degree, k int) CIResult {
	mc := config.DefaultMachine().ScaleLLCForTrace(o.Scale)
	wp := workload.ByName(workloadName)
	samples := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		p := wp
		p.Seed = wp.Seed + int64(i)*104729
		base := timing.Run(trace.Limit(workload.New(p), o.Accesses), mc,
			prefetch.Null{}, nil, o.Warmup)
		meter := &dram.Meter{}
		pf := Build(prefetcher, degree, meter, o.Scale)
		r := timing.Run(trace.Limit(workload.New(p), o.Accesses), mc, pf, meter, o.Warmup)
		samples = append(samples, r.SpeedupOver(base))
	}
	return CIResult{
		Mean:    stats.Mean(samples),
		CI95:    stats.CI95(samples),
		Samples: samples,
	}
}
