package experiments

import (
	"time"

	"domino/internal/flathash"
)

// chaosConfig is the engine's test-only fault injector: it deterministically
// selects a subset of jobs — by hashing (seed, label) — and makes them
// panic or stall, so the degradation paths (Degrade recovery, the
// JobTimeout watchdog, failure telemetry, "-" rendering) can be pinned
// under -race without touching any runner. It is reachable only through
// the unexported Options.chaos hook, so it cannot leak into production
// sweeps.
type chaosConfig struct {
	seed      uint64
	panicRate float64         // fraction of jobs that panic, in [0, 1]
	stallRate float64         // fraction of jobs that stall before running
	stall     time.Duration   // how long a stalled job sleeps
	stallC    <-chan struct{} // if non-nil, stalled jobs block here instead of sleeping
}

type chaosAction uint8

const (
	chaosNone chaosAction = iota
	chaosPanic
	chaosStall
)

// plan deterministically assigns a job its fault: the label hash is mapped
// to a uniform fraction in [0, 1) and compared against the configured
// rates. The same (seed, label) always gets the same fate, independent of
// worker count and scheduling — which is what lets tests predict exactly
// which cells fail.
func (c *chaosConfig) plan(label string) chaosAction {
	frac := flathash.Frac(c.seed, label)
	switch {
	case frac < c.panicRate:
		return chaosPanic
	case frac < c.panicRate+c.stallRate:
		return chaosStall
	default:
		return chaosNone
	}
}

// wrap returns the job body with this job's planned fault injected.
func (c *chaosConfig) wrap(label string, run func() any) func() any {
	switch c.plan(label) {
	case chaosPanic:
		return func() any { panic("chaos: injected panic in " + label) }
	case chaosStall:
		return func() any {
			if c.stallC != nil {
				<-c.stallC
			} else {
				time.Sleep(c.stall)
			}
			return run()
		}
	default:
		return run
	}
}
