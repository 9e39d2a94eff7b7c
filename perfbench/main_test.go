package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"domino/internal/experiments"
	"domino/internal/prefetch"
)

// smallSizes keeps a test run to a few seconds.
func smallSizes() sizes {
	return sizes{evalAccesses: 20_000, sweepAccesses: 20_000, serveRate: 100_000}
}

func testRun(t *testing.T, workload string, traced bool) *run {
	return &run{
		workload: workload,
		seed:     7,
		seconds:  300 * time.Millisecond,
		traced:   traced,
		size:     smallSizes(),
		dir:      t.TempDir(),
		log:      &bytes.Buffer{},
		values:   map[string]float64{},
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric lists
// the benchmark prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
		if w.Name == "serve-open" && !strings.Contains(w.Why, strconv.Itoa(serveOfferedRate)) {
			t.Errorf("serve-open's why does not state the offered rate %d", serveOfferedRate)
		}
	}
}

// TestMinimumRuns runs every workload at minimum length, plain and
// traced, and requires every metric BENCHMARK.json names to be printed,
// finite and with its unit, and every output check to pass.
func TestMinimumRuns(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			defs := bj.EndToEnd
			if traced {
				defs = bj.PerLayer
			}
			t.Run(w.Name+"/trace="+strconv.FormatBool(traced), func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := runBenchmark(options{
					workload: w.Name, seed: 3, seconds: 300 * time.Millisecond,
					traced: traced, outDir: t.TempDir(), size: smallSizes(),
				}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not printed", d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// The check-the-checker tests perturb one simulated statistic and require
// the output check to trip.

func TestCheckEvalTrips(t *testing.T) {
	r := testRun(t, "eval-trace", false)
	n := r.size.evalAccesses
	want := prefetch.RunWarm(evalInput(evalParams(r.seed), n), newEvalDomino(), prefetch.DefaultEvalConfig(), n/2)
	got := *want
	if err := checkEval(&got, want); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	for name, stat := range map[string]*uint64{
		"misses": &got.Misses, "covered": &got.Covered, "issued": &got.Issued, "used": &got.Used,
	} {
		*stat++
		if checkEval(&got, want) == nil {
			t.Errorf("%s off by one passed the check", name)
		}
		*stat--
	}
}

func TestCheckSweepTrips(t *testing.T) {
	r := testRun(t, "sweep-fig14", false)
	o := sweepOptions(r)
	res := experiments.Speedup(context.Background(), o, sweepDegree)
	ref := sweepReference(o)
	if missing, err := checkSweep(res, ref); missing != 0 || err != nil {
		t.Fatalf("unperturbed: %d missing, %v", missing, err)
	}
	for i := range res.Speedup.Cells {
		c := &res.Speedup.Cells[i]
		v := c.Value
		c.Value = math.Nextafter(v, math.Inf(1))
		if _, err := checkSweep(res, ref); err == nil {
			t.Errorf("%s/%s perturbed by one ulp passed the check", c.Workload, c.Series)
		}
		c.Value = v
	}
	w := sweepWorkloads[0]
	ipc := res.BaselineIPC[w]
	res.BaselineIPC[w] = ipc * 1.01
	if _, err := checkSweep(res, ref); err == nil {
		t.Error("perturbed baseline IPC passed the check")
	}
	delete(res.BaselineIPC, w)
	if missing, err := checkSweep(res, ref); missing != 1 || err == nil {
		t.Errorf("missing baseline cell: %d missing, %v", missing, err)
	}
}

func TestCheckServeTrips(t *testing.T) {
	r := testRun(t, "serve-open", false)
	srv, ls, err := serveSetup(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := serveLoad(srv, ls, r.size.serveRate, r.seconds, false)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for name, rec := range pass.recs {
		want[name] = len(rec.got)
	}
	ref, _ := serveReplay(r.seed, want, false)
	if err := checkServe(pass.recs, ref); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	rec := pass.recs[steadyName(0)]
	k := len(rec.got) - 1
	for name, perturb := range map[string]func(*batchOut){
		"hits":       func(b *batchOut) { b.hits++ },
		"misses":     func(b *batchOut) { b.misses++ },
		"prefetched": func(b *batchOut) { b.hash ^= 1 },
	} {
		orig := rec.got[k]
		perturb(&rec.got[k])
		if checkServe(pass.recs, ref) == nil {
			t.Errorf("steady tenant's last batch with %s perturbed passed the check", name)
		}
		rec.got[k] = orig
	}
}

// TestRefusesUnknownWorkload pins the flag errors.
func TestRefusesUnknownWorkload(t *testing.T) {
	var errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "eval-trace", "--trace", "2"},
		{"--workload", "eval-trace", "--seconds", "0"},
	} {
		if _, err := parseFlags(args, &errOut); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
