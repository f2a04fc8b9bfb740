// Command perfbench is the simulator's benchmark. It runs one named
// workload for a fixed wall-clock budget as a closed loop of identical
// units of work, checks every unit's outputs, and prints each metric by
// name with its unit, ending with one JSON line:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// Throughputs are reported per reference time: multiplied by the median
// wall time of a fixed reference kernel timed between the units (see
// calib.go), so they follow the program rather than the shared host's
// drifting speed. The wall-clock rates are printed beside them.
//
// Untraced runs (-trace 0) report the end-to-end metrics. Traced runs
// (-trace 1) spend half the budget untraced and half with spans around
// every call into the program and a CPU profile, and report the per-layer
// metrics; the spans are written to .bench_trace/ when the run ends.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload exact_1k --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"sim_s_per_ref", "s/ref", "higher"},
	{"points_per_ref", "1/ref", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"allocs_per_sim_s", "1/s", "lower"},
	{"allocs_per_point", "count", "lower"},
}

// perLayer are the metrics a traced run reports. A metric a workload has
// no counter for reads 0 there.
var perLayer = []metricDef{
	{"facade.new_s", "s", "lower"},
	{"facade.attach_s", "s", "lower"},
	{"facade.start_s", "s", "lower"},
	{"facade.step_ms_p50", "ms", "lower"},
	{"facade.step_ms_tail", "ms", "lower"},
	{"facade.step_tail_pct", "%", "higher"},
	{"facade.step_samples", "count", "higher"},
	{"facade.self_share", "ratio", "lower"},
	{"sim.events_per_sim_s", "1/s", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.pending_max", "count", "lower"},
	{"sim.self_share", "ratio", "lower"},
	{"netsim.self_share", "ratio", "lower"},
	{"packet.self_share", "ratio", "lower"},
	{"netsim.delivered_per_sim_s", "1/s", "higher"},
	{"netsim.ns_per_delivered", "ns", "lower"},
	{"netsim.loss_ratio", "ratio", "lower"},
	{"packet.outstanding_after_drain", "count", "lower"},
	{"mcast.self_share", "ratio", "lower"},
	{"mcast.feedback_absorbed", "count", "higher"},
	{"mcast.feedback_forwarded", "count", "lower"},
	{"mcast.consolidation_ratio", "ratio", "higher"},
	{"core.self_share", "ratio", "lower"},
	{"topo.self_share", "ratio", "lower"},
	{"flid.self_share", "ratio", "lower"},
	{"delta.self_share", "ratio", "lower"},
	{"sigma.self_share", "ratio", "lower"},
	{"keys.self_share", "ratio", "lower"},
	{"shamir.self_share", "ratio", "lower"},
	{"tcp.self_share", "ratio", "lower"},
	{"sigma.guesses", "count", "lower"},
	{"cohort.self_share", "ratio", "lower"},
	{"cohort.online", "count", "higher"},
	{"cohort.levels_occupied", "count", "lower"},
	{"fuzzing.self_share", "ratio", "lower"},
	{"fuzzing.point_ms_p50", "ms", "lower"},
	{"fuzzing.point_ms_tail", "ms", "lower"},
	{"fuzzing.point_tail_pct", "%", "higher"},
	{"fuzzing.point_samples", "count", "higher"},
	{"fuzzing.hunt_s", "s", "lower"},
	{"campaign.worker_idle_share", "ratio", "lower"},
	{"invariant.self_share", "ratio", "lower"},
	{"invariant.drain_audit_ms", "ms", "lower"},
	{"runtime.self_share", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_bytes_per_sim_s", "B/s", "lower"},
	{"bench.self_share", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"host.ref_ms", "ms", "lower"},
	{"host.sim_s_per_wall_s", "s/s", "higher"},
	{"host.points_per_s", "1/s", "higher"},
}

// hostMetrics are the per-layer metrics an untraced run also prints, after
// the end-to-end ones: the wall-clock rates and the reference time they
// were normalised by.
var hostMetrics = perLayer[len(perLayer)-3:]

// selfShareModules are the layers whose CPU share the traced run reports.
var selfShareModules = []string{
	"facade", "sim", "netsim", "packet", "mcast", "core", "topo", "flid", "delta", "sigma",
	"keys", "shamir", "tcp", "cohort", "fuzzing", "invariant", moduleRuntime, moduleBench,
}

// maxAggregated are per-unit layer values reported as their maximum over
// the run's units rather than their median: a high-water mark, and a leak
// that any one unit shows.
var maxAggregated = map[string]bool{
	"sim.pending_max":                true,
	"packet.outstanding_after_drain": true,
}

// minUnits is the fewest units a timed phase runs, whatever the budget:
// medians need three, and the cross-unit digest checks need two.
const minUnits = 3

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricOutcome `json:"metrics"`
}

type metricOutcome struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run: exact_1k, cohort_1m, paper_figs or campaign")
	seed := flag.Uint64("seed", 1, "workload seed; 1 is the baseline")
	seconds := flag.Float64("seconds", 15, "wall-clock budget of the run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	serve := flag.Bool("reference", false, "serve reference kernel samples on stdin and stdout (the child process)")
	flag.Parse()
	if *serve {
		return serveReference(os.Stdin, os.Stdout)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if w.oneCore {
		runtime.GOMAXPROCS(1)
	}
	ref, err := startReference()
	if err != nil {
		return err
	}
	defer ref.stop()
	r := &runner{seed: *seed, workers: runtime.NumCPU(), led: &ledger{}, digests: map[string]uint64{}, ref: ref}

	var metrics map[string]float64
	if *trace == 0 {
		metrics, err = untraced(w, r, budget)
	} else {
		metrics, err = traced(w, r, budget)
	}
	if err != nil {
		return err
	}
	if w.after != nil {
		r.tr.setRun(0)
		if err := w.after(r); err != nil {
			return err
		}
	}
	if r.tr != nil {
		if err := writeTrace(w, r, metrics); err != nil {
			return err
		}
	}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := result{Correct: r.led.correct(), Attempted: r.led.attempted, Failed: r.led.failed, Metrics: map[string]metricOutcome{}}
	fmt.Printf("workload %s seed %d trace %d\n", w.name, *seed, *trace)
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricOutcome{Value: v, Unit: d.Unit}
		fmt.Printf("  %-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if *trace == 0 {
		for _, d := range hostMetrics {
			fmt.Printf("  %-32s %14.6g %s\n", d.Name, metrics[d.Name], d.Unit)
		}
	}
	fmt.Printf("  %-32s %14.6g ratio (%d of %d checks failed)\n", "failed_ratio", r.led.failedRatio(), res.Failed, res.Attempted)
	known := map[string]int{}
	var order []string
	for _, k := range r.led.known {
		if known[k]++; known[k] == 1 {
			order = append(order, k)
		}
	}
	for _, k := range order {
		fmt.Printf("  known failure, %d times: %s\n", known[k], k)
	}
	for _, u := range r.led.unexpected {
		fmt.Printf("  FAILED: %s\n", u)
	}
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}

// phase is what runUnits measured.
type phase struct {
	setups []setupSample
	units  []unitStats
	refs   []float64 // reference kernel times, seconds
}

// simRates and pointRates are the wall-clock throughputs of the units.
func (p phase) simRates() (xs []float64) {
	for _, u := range p.units {
		xs = append(xs, u.simSec/u.timed.Seconds())
	}
	return xs
}

func (p phase) pointRates() (xs []float64) {
	for _, u := range p.units {
		xs = append(xs, u.points/u.wall.Seconds())
	}
	return xs
}

// runUnits runs set-up passes, then units until the budget is spent (at
// least minUnits). After each unit it times the reference kernel for a
// refShare-th of the unit's wall time.
func runUnits(w *workload, r *runner, budget time.Duration, setupPasses int) (phase, error) {
	t0 := time.Now()
	var p phase
	for i := 0; i < setupPasses; i++ {
		r.tr.setRun(-1 - i)
		runtime.GC()
		ss, err := w.setupOnly(r, 0)
		if err != nil {
			return p, err
		}
		p.setups = append(p.setups, ss...)
	}
	var walls []float64
	for {
		r.tr.setRun(len(p.units) + 1)
		// Each unit starts on a collected heap, so no unit pays for the
		// garbage of the one before and peak memory is one unit's.
		runtime.GC()
		m0 := readMem()
		ut := time.Now()
		u, err := w.unit(r)
		if err != nil {
			return p, err
		}
		u.wall = time.Since(ut)
		u.unitMallocs = readMem().mallocs - m0.mallocs
		refs, err := r.ref.samples(u.wall/refShare, w.refKernels(r))
		if err != nil {
			return p, err
		}
		walls = append(walls, time.Since(ut).Seconds())
		p.units = append(p.units, u)
		p.refs = append(p.refs, refs...)
		fmt.Fprintf(os.Stderr, "unit %d: wall %.3fs timed %.3fs (%.4g sim s/wall s), %d set-ups, reference %.1f ms\n",
			len(p.units), u.wall.Seconds(), u.timed.Seconds(), u.simSec/u.timed.Seconds(), len(u.setups), median(refs)*1e3)
		p.setups = append(p.setups, u.setups...)
		// Stop when another unit of median length would overrun.
		left := (budget - time.Since(t0)).Seconds()
		if len(p.units) >= minUnits && left < median(walls) {
			return p, nil
		}
	}
}

// untraced measures the end-to-end metrics.
func untraced(w *workload, r *runner, budget time.Duration) (map[string]float64, error) {
	p, err := runUnits(w, r, budget, w.setupPasses)
	if err != nil {
		return nil, err
	}
	var allocSim, allocPoint, setup []float64
	for _, u := range p.units {
		allocSim = append(allocSim, float64(u.mallocs)/u.simSec)
		allocPoint = append(allocPoint, float64(u.unitMallocs)/u.points)
	}
	for _, s := range p.setups {
		setup = append(setup, s.total.Seconds())
	}
	simRate, pointRate, ref := median(p.simRates()), median(p.pointRates()), median(p.refs)
	return map[string]float64{
		"sim_s_per_ref":         simRate * ref,
		"points_per_ref":        pointRate * ref,
		"setup_s":               median(setup),
		"peak_rss_mb":           peakRSSMiB(),
		"allocs_per_sim_s":      median(allocSim),
		"allocs_per_point":      median(allocPoint),
		"host.ref_ms":           ref * 1e3,
		"host.sim_s_per_wall_s": simRate,
		"host.points_per_s":     pointRate,
	}, nil
}

// traced spends the first half of the budget on untraced units, then
// traces units under a CPU profile, and reports the per-layer metrics.
func traced(w *workload, r *runner, budget time.Duration) (map[string]float64, error) {
	t0 := time.Now()
	plain, err := runUnits(w, r, budget/2, 0)
	if err != nil {
		return nil, err
	}
	r.tr = newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tp, err := runUnits(w, r, budget-time.Since(t0), w.setupPasses)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	shares, samples, err := profileShares(prof.Bytes())
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.Name] = 0
	}
	var newS, attachS, startS []float64
	for _, s := range tp.setups {
		newS = append(newS, s.new.Seconds())
		attachS = append(attachS, s.attach.Seconds())
		startS = append(startS, s.start.Seconds())
	}
	m["facade.new_s"], m["facade.attach_s"], m["facade.start_s"] = median(newS), median(attachS), median(startS)

	var steps, points, gc, allocB, tracedWall, plainWall []float64
	layer := map[string][]float64{}
	for _, u := range tp.units {
		steps = append(steps, u.stepsMs...)
		points = append(points, u.pointsMs...)
		gc = append(gc, float64(u.gcCycles))
		allocB = append(allocB, float64(u.allocBytes)/u.simSec)
		tracedWall = append(tracedWall, u.wall.Seconds())
		for k, v := range u.layer {
			layer[k] = append(layer[k], v)
		}
	}
	for _, u := range plain.units {
		plainWall = append(plainWall, u.wall.Seconds())
	}
	for k, vs := range layer {
		if maxAggregated[k] {
			for _, v := range vs {
				m[k] = max(m[k], v)
			}
		} else {
			m[k] = median(vs)
		}
	}
	if len(steps) > 0 {
		t := tailOf(steps)
		m["facade.step_ms_p50"], m["facade.step_ms_tail"] = median(steps), t.Value
		m["facade.step_tail_pct"], m["facade.step_samples"] = t.Pct, float64(t.Samples)
	}
	if len(points) > 0 {
		t := tailOf(points)
		m["fuzzing.point_ms_p50"], m["fuzzing.point_ms_tail"] = median(points), t.Value
		m["fuzzing.point_tail_pct"], m["fuzzing.point_samples"] = t.Pct, float64(t.Samples)
	}
	for _, mod := range selfShareModules {
		m[mod+".self_share"] = shares[mod]
	}
	m["runtime.gc_cycles"] = median(gc)
	m["runtime.alloc_bytes_per_sim_s"] = median(allocB)
	m["trace.overhead_ratio"] = median(tracedWall) / median(plainWall)
	m["host.ref_ms"] = median(plain.refs) * 1e3
	m["host.sim_s_per_wall_s"] = median(plain.simRates())
	m["host.points_per_s"] = median(plain.pointRates())

	r.rollup, r.samples = shares, samples
	return m, nil
}

// writeTrace writes the run's spans, their per-name totals, the CPU
// rollup and the per-layer metrics to .bench_trace/.
func writeTrace(w *workload, r *runner, metrics map[string]float64) error {
	out := struct {
		Workload       string             `json:"workload"`
		Seed           uint64             `json:"seed"`
		Metrics        map[string]float64 `json:"metrics"`
		ProfileSamples int                `json:"profile_samples"`
		SelfShares     map[string]float64 `json:"self_shares"`
		Totals         []spanTotal        `json:"span_totals"`
		Spans          []span             `json:"spans"`
	}{w.name, r.seed, metrics, r.samples, r.rollup, r.tr.totals(), r.tr.spans}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	dir := ".bench_trace"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, r.seed)), js, 0o644)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
