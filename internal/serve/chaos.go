// Deterministic chaos for the serving layer, modeled on the experiment
// engine's injector (internal/experiments/chaos.go): every fault
// decision is a pure function of (Seed, label), where a batch's label is
// derived from its content — tenant, length, first and last address.
// Two consequences matter:
//
//   - Determinism across goroutine interleavings and supervisor
//     restarts: the same batch always draws the same fate, regardless of
//     which shard incarnation processes it or in what order shards run.
//     That is what lets the chaos tests in this package pin supervisor,
//     quarantine and watchdog behavior byte-for-byte under -race.
//   - Statelessness: planning keeps no per-tenant counters, so a stuck
//     incarnation abandoned by the watchdog and its replacement can both
//     plan batches without sharing mutable state.
//
// Rates partition the unit interval into bands: a batch's fraction
// f = flathash.Frac(Seed, label) panics the batch if f < PanicRate, kills
// the shard goroutine if f < PanicRate+KillRate, runs slow if
// f < PanicRate+KillRate+SlowRate, and is healthy otherwise.
package serve

import (
	"fmt"
	"time"

	"domino/internal/flathash"
)

// Chaos injects deterministic faults into shard batch processing. All
// rates are probabilities in [0, 1]; the zero value injects nothing.
type Chaos struct {
	// Seed namespaces every fault decision; two runs with the same seed
	// and workload inject identical faults.
	Seed uint64
	// PanicRate is the fraction of batches that panic inside batch
	// isolation — the shard recovers, fails the batch, and keeps going.
	PanicRate float64
	// KillRate is the fraction of batches whose panic escapes batch
	// isolation and kills the shard goroutine, exercising the
	// supervisor's restart path.
	KillRate float64
	// SlowRate is the fraction of batches delayed by Slow (or parked on
	// stallC when set), exercising the batch-deadline watchdog.
	SlowRate float64
	// Slow is how long a slow batch stalls. Ignored when stallC is set.
	Slow time.Duration
	// BuildFailRate is the fraction of tenants whose session build
	// fails, exercising the build-error path (satellite of the original
	// panic(err) bug).
	BuildFailRate float64

	// stallC, when non-nil, replaces the Slow sleep: a slow batch blocks
	// until the channel is closed. Test-only — it makes "stuck shard"
	// a condition the watchdog tests control exactly.
	stallC <-chan struct{}
}

// shardKill is the panic payload for a chaos shard-fatal fault. Batch
// isolation (processGuarded) re-raises it so it reaches runGen's
// top-level recover and kills the incarnation.
type shardKill struct{}

func (shardKill) String() string { return "chaos: shard kill" }

// batchFate is the planned fault for one batch.
type batchFate uint8

const (
	fateNone batchFate = iota
	fatePanic
	fateKill
	fateSlow
)

// batchLabel derives a batch's planning label from its content, not its
// arrival order, so the plan survives restarts and requeues.
func batchLabel(b Batch) string {
	var first, last uint64
	if n := len(b.Accesses); n > 0 {
		first = uint64(b.Accesses[0].Addr)
		last = uint64(b.Accesses[n-1].Addr)
	}
	return fmt.Sprintf("batch|%s|%d|%x|%x", b.Tenant, len(b.Accesses), first, last)
}

// planBatch decides a batch's fate. Pure: no state is read or written.
func (c *Chaos) planBatch(b Batch) batchFate {
	if c == nil {
		return fateNone
	}
	f := flathash.Frac(c.Seed, batchLabel(b))
	switch {
	case f < c.PanicRate:
		return fatePanic
	case f < c.PanicRate+c.KillRate:
		return fateKill
	case f < c.PanicRate+c.KillRate+c.SlowRate:
		return fateSlow
	default:
		return fateNone
	}
}

// injectBatch executes the batch's planned fate. Runs on the shard
// goroutine inside batch isolation.
func (c *Chaos) injectBatch(b Batch) {
	switch c.planBatch(b) {
	case fatePanic:
		panic(fmt.Sprintf("chaos: injected batch panic (tenant %q)", b.Tenant))
	case fateKill:
		panic(shardKill{})
	case fateSlow:
		if c.stallC != nil {
			<-c.stallC
		} else if c.Slow > 0 {
			time.Sleep(c.Slow)
		}
	}
}

// buildFails reports whether chaos fails this tenant's session build.
// Labeled per tenant (not per batch), so a doomed tenant fails
// consistently — which is exactly the shape that exercises quarantine.
func (c *Chaos) buildFails(tenant string) bool {
	if c == nil || c.BuildFailRate <= 0 {
		return false
	}
	return flathash.Frac(c.Seed, "build|"+tenant) < c.BuildFailRate
}
