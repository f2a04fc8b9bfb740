package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"deltasigma"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tailOf must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		value float64
		pct   float64
	}{
		{n: 0},
		{n: 10}, // no sample has ten beyond it
		{n: 19}, // the median has only nine beyond it
		{n: 20, value: 10, pct: 50},
		{n: 100, value: 90, pct: 90},
		{n: 1000, value: 990, pct: 99},
		{n: 10010, value: 10000, pct: 99.9},
	} {
		got := tailOf(seq(c.n))
		if got.Value != c.value || got.Pct != c.pct || got.Samples != c.n {
			t.Errorf("tailOf(%d samples) = %+v, want value %v at p%v from %d samples", c.n, got, c.value, c.pct, c.n)
		}
		if got.Pct > 0 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < tailMinBeyond {
				t.Errorf("tailOf(%d samples): p%v has %d samples beyond it", c.n, got.Pct, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestAttributeInnermostRepoFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// Malloc work counts against the module that asked for it.
		{[]string{"runtime.mallocgc", "deltasigma/internal/sim.(*calQueue).push", "deltasigma.(*Experiment).Advance", "main.main"}, "sim"},
		// Inlined frames come innermost first within a location.
		{[]string{"deltasigma/internal/packet.(*Pool).Get", "deltasigma/internal/netsim.(*Link).Send"}, "packet"},
		{[]string{"deltasigma.New.func1", "main.main"}, "facade"},
		{[]string{"deltasigma/internal/x.Map[go.shape.*deltasigma/internal/y.T]"}, "x"},
		// No frame of the program: GC workers are runtime, the
		// benchmark's own work is bench in either binary.
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, moduleRuntime},
		{[]string{"encoding/json.Marshal", "main.(*runner).sameDigest"}, moduleBench},
		{[]string{"hash/fnv.(*sum64a).Write", "deltasigma/perfbench.(*runner).sameDigest"}, moduleBench},
		{nil, moduleRuntime},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestProfileSharesDecodesRuntimeProfile profiles a real simulation and
// checks that the decoder finds the engine's frames under the samples.
func TestProfileSharesDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	e := deltasigma.MustNew(deltasigma.WithSeed(3))
	s := e.AddSession(0)
	for i := 0; i < 200; i++ {
		s.AddReceiverDelay(20 * deltasigma.Millisecond)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for at := deltasigma.Second; time.Now().Before(deadline); at += deltasigma.Second {
		e.Advance(at)
	}
	pprof.StopCPUProfile()

	shares, samples, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("the profile caught no samples")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
	// The race detector's C code leaves stacks without Go frames, which
	// count as runtime, so the bar is low: the program's layers, the
	// engine among them, must show.
	var program float64
	for m, v := range shares {
		if m != moduleRuntime && m != moduleBench {
			program += v
		}
	}
	if shares["sim"] == 0 || program < 0.1 {
		t.Errorf("the program's layers barely show in a simulation's profile: %v", shares)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	if got := covered([][2]int64{{5, 9}, {0, 3}, {2, 4}, {8, 10}, {20, 21}}); got != 4+5+1 {
		t.Errorf("covered = %d, want 10", got)
	}
}

func TestLedgerCountsFailures(t *testing.T) {
	var l ledger
	l.check("passes", true, "")
	if !l.correct() || l.attempted != 1 || l.failed != 0 {
		t.Fatalf("after a pass: %+v", l)
	}
	pool := deltasigma.Violation{Rule: "pool-balance"}
	drained := deltasigma.Violation{Rule: "link-drained"}
	// The recorded failure of seed 399 is counted but expected.
	l.checkFuzzOutcome(399, false, []deltasigma.Violation{drained, pool, drained}, "")
	if !l.correct() || l.failed != 1 || len(l.known) != 1 {
		t.Fatalf("a known failure: %+v", l)
	}
	// The same seed failing another way, and any other seed failing, are not.
	l.checkFuzzOutcome(399, false, []deltasigma.Violation{pool}, "")
	l.checkFuzzOutcome(400, false, []deltasigma.Violation{pool, drained}, "")
	l.checkFuzzOutcome(401, true, nil, "")
	l.check("fig", false, "shape")
	if l.correct() || l.attempted != 6 || l.failed != 4 || len(l.unexpected) != 3 {
		t.Fatalf("unexpected failures: %+v", l)
	}
	if got := l.failedRatio(); got != 4.0/6 {
		t.Errorf("failed ratio = %v, want 4/6", got)
	}
}

// TestCampaignSeedsStayInScannedCorpus pins the seed → batch map: seed 1
// is the baseline batch 1..512, which holds the known failure 399.
func TestCampaignSeedsStayInScannedCorpus(t *testing.T) {
	if got := campaignStart(1); got != 1 {
		t.Errorf("seed 1 starts at %d", got)
	}
	if got := campaignStart(2); got != 513 {
		t.Errorf("seed 2 starts at %d", got)
	}
	for _, seed := range []uint64{0, 1, 31, 32, 33, 1 << 40, math.MaxUint64} {
		if s := campaignStart(seed); s < 1 || s+fuzzBatch-1 > fuzzSlots*fuzzBatch {
			t.Errorf("seed %d runs fuzz seeds %d..%d, outside 1..%d", seed, s, s+fuzzBatch-1, fuzzSlots*fuzzBatch)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the allowed
// character sets, and BENCHMARK.json against the metrics the program
// prints.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q outside the allowed characters", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload %q outside the allowed characters", w.name)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "x/y", "é"} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}

	js, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(js, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok || len(w.Why) > 200 {
			t.Errorf("workload %d %q: unknown, or its reason is over 200 characters", i, w.Name)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program prints %d", len(bench.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range bench.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program prints %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, perLayer[i])
		}
	}
}

// TestTracerConcurrentSpans opens and closes spans from several
// goroutines at once, as the traced campaign's workers do.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "root")
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tr.end(tr.begin(root, "point"), map[string]float64{"i": float64(i)})
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	tr.end(root, nil)
	tot := tr.totals()
	if len(tot) != 2 || tot[0].Name != "root" || tot[1].Count != 400 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot[0].SelfS > tot[0].TotS || tot[0].SelfS < 0 {
		t.Errorf("root self time %v outside [0, %v]", tot[0].SelfS, tot[0].TotS)
	}
	var nilTracer *tracer
	if id := nilTracer.begin(0, "x"); id != 0 || nilTracer.end(id, nil) != 0 {
		t.Error("the untraced mode recorded a span")
	}
}

// TestRefKernel checks that the reference child answers each requested
// duration with one line of samples, at least one, covering the time asked.
func TestRefKernel(t *testing.T) {
	t0 := time.Now()
	var out bytes.Buffer
	if err := serveReference(strings.NewReader("50ms 1\n1ns 2\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || len(strings.Fields(lines[1])) != 1 || time.Since(t0) < 50*time.Millisecond {
		t.Errorf("served %q in %v, want two lines, the second one sample", out.String(), time.Since(t0))
	}
}
