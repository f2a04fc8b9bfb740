package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"deltasigma"
	"deltasigma/internal/campaign"
	"deltasigma/internal/flid"
	"deltasigma/internal/fuzzing"
	"deltasigma/internal/invariant"
	"deltasigma/internal/scenario"
	"deltasigma/internal/sim"
	"deltasigma/internal/topo"
)

// setupSample is the set-up of one experiment: wall time from New until
// Start returns, split by phase.
type setupSample struct {
	total, new, attach, start time.Duration
}

// unitStats is what one closed-loop unit of work measured.
type unitStats struct {
	wall        time.Duration // the whole unit, set-up and checks included
	unitMallocs uint64        // allocations over the whole unit
	timed       time.Duration // the timed phase the simulated-time rate is taken over
	simSec      float64       // simulated seconds in the timed phase
	points      float64       // units of work completed (experiments, figures, specs)
	// Allocation and GC counters over the timed phase.
	mallocs, allocBytes uint64
	gcCycles            uint32
	setups              []setupSample // set-ups done inside the unit
	layer               map[string]float64
	stepsMs, pointsMs   []float64 // per-Advance and per-fuzz-point wall times
}

// workload is one named benchmark job.
type workload struct {
	name string
	// setupPasses is how many set-up-only passes run before the timed
	// units, so setup_s is a median of many samples even when few units
	// fit in a run. A pass builds the unit's experiments to Start.
	setupPasses int
	setupOnly   func(r *runner, parent int) ([]setupSample, error)
	unit        func(r *runner) (unitStats, error)
	// after runs once per run, untimed, for checks against pinned files.
	after func(r *runner) error
	// parallel marks a workload whose timed phase keeps every core busy.
	parallel bool
	// oneCore runs the workload, and the reference kernel, with
	// GOMAXPROCS=1. A program with a large heap leans on its collector
	// running on the second core, which the shared host grants unevenly
	// and the kernel does not use enough to follow; on one core both
	// share it.
	oneCore bool
}

// refKernels is how many reference kernels one sample runs at once: one
// per core the workload's timed phase uses.
func (w *workload) refKernels(r *runner) int {
	if w.parallel {
		return r.workers
	}
	return 1
}

// runner carries the state of one benchmark run into the workloads.
type runner struct {
	seed    uint64
	workers int
	tr      *tracer // nil when the run is not traced
	ref     *reference
	led     *ledger
	digests map[string]uint64 // first digest seen per output name
	// The traced run's CPU share per layer and its profile sample count.
	rollup  map[string]float64
	samples int
}

// call runs fn inside a span and returns its wall time.
func (r *runner) call(parent int, name string, fn func()) time.Duration {
	id := r.tr.begin(parent, name)
	t := time.Now()
	fn()
	d := time.Since(t)
	r.tr.end(id, nil)
	return d
}

// sameDigest checks that output name hashes the same in every unit of
// the run: the program is deterministic for a fixed seed.
func (r *runner) sameDigest(name string, v any) error {
	js, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("digest %s: %w", name, err)
	}
	h := fnv.New64a()
	h.Write(js)
	d := h.Sum64()
	first, seen := r.digests[name]
	if !seen {
		r.digests[name] = d
		return nil
	}
	r.led.check(name+" digest identical across units", d == first,
		fmt.Sprintf("%016x, first unit %016x", d, first))
	return nil
}

type memSnap struct {
	mallocs, allocBytes uint64
	gc                  uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, m.TotalAlloc, m.NumGC}
}

// since fills u's allocation counters with the change from m0 to now.
func (u *unitStats) since(m0 memSnap) {
	m1 := readMem()
	u.mallocs = m1.mallocs - m0.mallocs
	u.allocBytes = m1.allocBytes - m0.allocBytes
	u.gcCycles = m1.gc - m0.gc
}

var workloads = []*workload{exact1k(), cohort1m(), paperFigs(), campaignWorkload()}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// exact_1k and cohort_1m: one flid-ds session on the paper's 1 Mbps
// dumbbell, stepped with Advance, drained and audited.

// Fuzzer calibration of the suppression oracle: an attacker may take
// 1.25× the honest median plus 30 Kbps.
const (
	oracleFactor    = 1.25
	oracleFloorKbps = 30
)

// sessionJob describes one of the two single-session workloads.
type sessionJob struct {
	name      string
	dur, step deltasigma.Time
	// populate attaches the honest population and returns the cohort, if
	// any.
	populate func(r *runner, parent int, s *deltasigma.ExperimentSession) *deltasigma.Cohort
	// churn adds Poisson membership churn over the whole run.
	churn float64
}

// built is a started experiment and the handles the checks read.
type built struct {
	e      *deltasigma.Experiment
	atk    *deltasigma.Receiver
	cohort *deltasigma.Cohort
}

func (j sessionJob) build(r *runner, parent int) (built, setupSample, error) {
	var b built
	var ss setupSample
	var err error
	t0 := time.Now()
	ss.new = r.call(parent, "New", func() {
		b.e, err = deltasigma.New(
			deltasigma.WithProtocol("flid-ds"),
			deltasigma.WithSeed(r.seed),
			deltasigma.WithAudit(deltasigma.AuditSuppression(deltasigma.SuppressionOracle{
				Session: 1, From: j.dur / 2, Factor: oracleFactor, FloorKbps: oracleFloorKbps,
			})),
		)
	})
	if err != nil {
		return b, ss, fmt.Errorf("%s: New: %w", j.name, err)
	}
	t1 := time.Now()
	var s *deltasigma.ExperimentSession
	r.call(parent, "AddSession", func() { s = b.e.AddSession(0) })
	b.cohort = j.populate(r, parent, s)
	r.call(parent, "AddAttacker", func() { b.atk = s.AddAttacker() })
	ss.attach = time.Since(t1)
	events := []deltasigma.TimelineEvent{deltasigma.AttackerOnset{At: j.dur / 4, Session: 1}}
	if j.churn > 0 {
		events = append(events, deltasigma.PoissonChurn{Session: 1, Rate: j.churn, To: j.dur})
	}
	r.call(parent, "AddEvents", func() { b.e.AddEvents(events...) })
	ss.start = r.call(parent, "Start", b.e.Start)
	ss.total = time.Since(t0)
	return b, ss, nil
}

func (j sessionJob) workload(setupPasses int, oneCore bool) *workload {
	return &workload{
		name:        j.name,
		setupPasses: setupPasses,
		oneCore:     oneCore,
		setupOnly: func(r *runner, parent int) ([]setupSample, error) {
			id := r.tr.begin(parent, "setup")
			_, ss, err := j.build(r, id)
			r.tr.end(id, nil)
			return []setupSample{ss}, err
		},
		unit: j.unit,
	}
}

func (j sessionJob) unit(r *runner) (unitStats, error) {
	var u unitStats
	root := r.tr.begin(0, j.name)
	defer r.tr.end(root, nil)

	sid := r.tr.begin(root, "setup")
	b, ss, err := j.build(r, sid)
	r.tr.end(sid, nil)
	if err != nil {
		return u, err
	}
	u.setups = []setupSample{ss}
	sched := b.e.Topo.Scheduler()
	traced := r.tr != nil

	m0 := readMem()
	fired0 := sched.Fired()
	pendingMax := 0
	t0 := time.Now()
	for at := j.step; at <= j.dur; at += j.step {
		id := r.tr.begin(root, "Advance")
		st := time.Now()
		b.e.Advance(at)
		d := time.Since(st)
		if traced {
			pending := sched.Pending()
			pendingMax = max(pendingMax, pending)
			r.tr.end(id, map[string]float64{"fired": float64(sched.Fired()), "pending": float64(pending)})
			u.stepsMs = append(u.stepsMs, float64(d)/1e6)
		}
	}
	var res *deltasigma.Result
	r.call(root, "Run", func() { res = b.e.Run(j.dur) })
	u.timed = time.Since(t0)
	u.since(m0)
	u.simSec = j.dur.Sec()
	u.points = 1
	events := float64(sched.Fired() - fired0)

	if err := r.sameDigest(j.name+" Result JSON", res); err != nil {
		return u, err
	}
	var online, occupied float64
	if b.cohort != nil {
		online = float64(b.cohort.Online())
		for _, n := range b.cohort.Levels()[1:] {
			if n > 0 {
				occupied++
			}
		}
	}

	var vs []deltasigma.Violation
	drain := r.call(root, "DrainAndAudit", func() { vs = b.e.DrainAndAudit(fuzzing.DrainGrace) })
	var structural, oracle []deltasigma.Violation
	for _, v := range vs {
		if v.Rule == invariant.RuleSuppressionOracle || v.Rule == invariant.RuleOracleWindow {
			oracle = append(oracle, v)
		} else {
			structural = append(structural, v)
		}
	}
	r.led.check(j.name+" drain audit clean", len(structural) == 0, fmt.Sprintf("violations %v", ruleSet(structural)))
	r.led.check(j.name+" suppression oracle holds from mid-run", len(oracle) == 0, fmt.Sprintf("%+v", oracle))
	outstanding := b.e.Pool().Outstanding()
	r.led.check(j.name+" packet pool empty after drain", outstanding == 0, fmt.Sprintf("%d outstanding", outstanding))
	if b.cohort != nil {
		got := b.cohort.Agent().Accounted()
		r.led.check(j.name+" cohort members conserved", got == b.cohort.Members(),
			fmt.Sprintf("%d accounted of %d", got, b.cohort.Members()))
	}
	if !traced {
		return u, nil
	}

	var delivered, lost float64
	for _, l := range res.Bottlenecks {
		delivered += float64(l.Delivered)
		lost += float64(l.Dropped + l.DroppedDown)
	}
	var absorbed, forwarded uint64
	r.call(root, "FeedbackStats", func() { absorbed, forwarded = b.e.FeedbackStats() })
	var guesses float64
	if a, ok := b.atk.Unwrap().(*flid.DSAttacker); ok {
		guesses = float64(a.GuessesSent)
	}
	u.layer = map[string]float64{
		"sim.events_per_sim_s":           events / u.simSec,
		"sim.ns_per_event":               float64(u.timed.Nanoseconds()) / events,
		"sim.pending_max":                float64(pendingMax),
		"netsim.delivered_per_sim_s":     delivered / u.simSec,
		"netsim.ns_per_delivered":        float64(u.timed.Nanoseconds()) / delivered,
		"netsim.loss_ratio":              ratio(lost, delivered+lost),
		"packet.outstanding_after_drain": float64(outstanding),
		"mcast.feedback_absorbed":        float64(absorbed),
		"mcast.feedback_forwarded":       float64(forwarded),
		"mcast.consolidation_ratio":      ratio(float64(absorbed), float64(absorbed+forwarded)),
		"sigma.guesses":                  guesses,
		"cohort.online":                  online,
		"cohort.levels_occupied":         occupied,
		"invariant.drain_audit_ms":       float64(drain) / 1e6,
	}
	return u, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// exact1k is 1000 exact receivers: the slot bursts of ~1000 same-instant
// events and the per-receiver attach and routing cost.
func exact1k() *workload {
	return sessionJob{
		name: "exact_1k",
		dur:  8 * deltasigma.Second,
		step: 250 * deltasigma.Millisecond, // one FLID-DS slot
		populate: func(r *runner, parent int, s *deltasigma.ExperimentSession) *deltasigma.Cohort {
			// Access delays spread uniformly over 20..60 ms, drawn from the
			// seed so every unit of a run attaches the same population.
			rng := rand.New(rand.NewPCG(r.seed, 0x5eed))
			for i := 0; i < 1000; i++ {
				d := 20*deltasigma.Millisecond + deltasigma.Time(rng.Int64N(int64(40*deltasigma.Millisecond)+1))
				r.call(parent, "AddReceiverDelay", func() { s.AddReceiverDelay(d) })
			}
			return nil
		},
	}.workload(1, true)
}

// cohort1m is a 10^6-member cohort under churn: per-slot cost does not
// depend on population, so the horizon is long.
func cohort1m() *workload {
	return sessionJob{
		name:  "cohort_1m",
		dur:   1000 * deltasigma.Second,
		step:  deltasigma.Second,
		churn: 100,
		populate: func(r *runner, parent int, s *deltasigma.ExperimentSession) *deltasigma.Cohort {
			var c *deltasigma.Cohort
			r.call(parent, "AddCohort", func() { c = s.AddCohort(1_000_000) })
			r.call(parent, "AddReceiverDelay", func() { s.AddReceiverDelay(deltasigma.DefaultDelay) })
			return c
		},
	}.workload(15, false)
}

// ---------------------------------------------------------------------------
// paper_figs: Figures 1, 7 and 8(c) as cmd/figures runs them.

const (
	// figScale is the scenario.Options scale the figures run at, the one
	// the scenario tests assert their shapes at.
	figScale = 0.35
	// figBaseSeed makes benchmark seed 1 run the figures at their
	// published seed, 2003.
	figBaseSeed = 2002
	// paperRunSec is the paper's length of the Figure 1/7 runs and of each
	// Figure 8 point, before scaling.
	paperRunSec = 200
)

// fig8Sessions is the Figure 8 session-count sweep the scenario runs at
// scales below 1.
var fig8Sessions = []int{1, 2, 4, 8}

func paperFigs() *workload {
	return &workload{
		name:        "paper_figs",
		setupPasses: 21,
		setupOnly:   figSetup,
		unit:        figUnit,
	}
}

func figOptions(r *runner) scenario.Options {
	return scenario.Options{Scale: figScale, Seed: figBaseSeed + r.seed}
}

// figSetup builds, to Start, the ten experiments the three figures run,
// wired as the scenario wires them; the figure functions do not expose
// their own set-up. It returns one sample, the ten set-ups summed: they
// range from 10 to 300 µs, so a median over single experiments jumps
// between them from run to run.
func figSetup(r *runner, parent int) ([]setupSample, error) {
	id := r.tr.begin(parent, "setup")
	defer r.tr.end(id, nil)
	seed := figOptions(r).Seed
	var ss setupSample
	build := func(cfg topo.Config, proto string, wire func(e *deltasigma.Experiment)) error {
		var e *deltasigma.Experiment
		var err error
		t0 := time.Now()
		ss.new += r.call(id, "New", func() {
			e, err = deltasigma.New(deltasigma.WithDumbbellConfig(cfg), deltasigma.WithProtocol(proto), deltasigma.WithSeed(cfg.Seed))
		})
		if err != nil {
			return fmt.Errorf("paper_figs: New: %w", err)
		}
		ss.attach += r.call(id, "attach", func() { wire(e) })
		ss.start += r.call(id, "Start", e.Start)
		ss.total += time.Since(t0)
		return nil
	}
	for _, proto := range []string{"flid-dl", "flid-ds"} {
		err := build(topo.PaperConfig(1_000_000, seed), proto, func(e *deltasigma.Experiment) {
			e.AddSession(0).AddAttacker()
			e.AddSession(0).AddReceiver()
			e.AddTCP(0)
			e.AddTCP(0)
		})
		if err != nil {
			return nil, err
		}
	}
	for _, proto := range []string{"flid-dl", "flid-ds"} {
		for _, m := range fig8Sessions {
			err := build(topo.PaperConfig(scenario.FairShare*int64(m), seed+uint64(m)*17), proto, func(e *deltasigma.Experiment) {
				for i := 0; i < m; i++ {
					e.AddSession(1)
				}
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return []setupSample{ss}, nil
}

func figUnit(r *runner) (unitStats, error) {
	var u unitStats
	root := r.tr.begin(0, "paper_figs")
	defer r.tr.end(root, nil)
	opt := figOptions(r)
	figs := []struct {
		name string
		fn   func(scenario.Options) *scenario.Result
	}{{"Fig1", scenario.Fig1}, {"Fig7", scenario.Fig7}, {"Fig8c", scenario.Fig8c}}
	results := make([]*scenario.Result, len(figs))
	m0 := readMem()
	t0 := time.Now()
	for i, f := range figs {
		r.call(root, f.name, func() { results[i] = f.fn(opt) })
	}
	u.timed = time.Since(t0)
	u.since(m0)
	u.points = float64(len(figs))
	fig8Runs := 0
	if c := results[2].Curves; len(c) > 0 {
		fig8Runs = len(c[0].Points) * len(c)
	}
	u.simSec = float64(2+fig8Runs) * paperRunSec * figScale

	for i, f := range figs {
		if err := r.sameDigest("paper_figs "+f.name, results[i]); err != nil {
			return u, err
		}
	}
	checkFig1(r.led, results[0], opt)
	guesses := checkFig7(r.led, results[1], opt)
	checkFig8c(r.led, results[2])
	if r.tr != nil {
		u.layer = map[string]float64{"sigma.guesses": guesses}
	}
	return u, nil
}

// figSeries indexes a figure's series by label.
func figSeries(res *scenario.Result) map[string]scenario.Series {
	m := map[string]scenario.Series{}
	for _, s := range res.Series {
		m[s.Label] = s
	}
	return m
}

// checkFig1 asserts Figure 1's shape: under FLID-DL the attacker F1 at
// least doubles its pre-attack rate, reaches 600 Kbps of the 1 Mbps
// bottleneck, and F2 and T1 fall below half of it.
func checkFig1(l *ledger, res *scenario.Result, opt scenario.Options) {
	dur := paperRunSec * opt.Scale
	mid := dur / 2
	s := figSeries(res)
	f1Pre := scenario.SeriesAvg(s["F1"], mid*0.4, mid*0.9)
	f1Post := scenario.SeriesAvg(s["F1"], mid*1.2, dur)
	f2Post := scenario.SeriesAvg(s["F2"], mid*1.2, dur)
	t1Post := scenario.SeriesAvg(s["T1"], mid*1.2, dur)
	l.check("Fig1 attacker profits", len(res.Series) == 4 && f1Post >= 2*f1Pre && f1Post >= 600 &&
		f2Post <= f1Post/2 && t1Post <= f1Post/2,
		fmt.Sprintf("F1 %.0f->%.0f Kbps, F2 %.0f, T1 %.0f", f1Pre, f1Post, f2Post, t1Post))
}

// checkFig7 asserts Figure 7's shape: under FLID-DS the attacker stays
// within noise of its pre-attack rate and under 400 Kbps, and F2 is not
// starved. It returns the attacker's guessed-key count from the notes.
func checkFig7(l *ledger, res *scenario.Result, opt scenario.Options) float64 {
	dur := paperRunSec * opt.Scale
	mid := dur / 2
	s := figSeries(res)
	f1Pre := scenario.SeriesAvg(s["F1"], mid*0.4, mid*0.9)
	f1Post := scenario.SeriesAvg(s["F1"], mid*1.2, dur)
	f2Post := scenario.SeriesAvg(s["F2"], mid*1.2, dur)
	l.check("Fig7 attacker held to its fair share", f1Post <= 1.5*f1Pre+50 && f1Post <= 400 && f2Post >= 50,
		fmt.Sprintf("F1 %.0f->%.0f Kbps, F2 %.0f", f1Pre, f1Post, f2Post))
	var guesses float64
	for _, n := range res.Notes {
		var g uint64
		if _, err := fmt.Sscanf(n, "attacker submitted %d guessed keys", &g); err == nil {
			guesses = float64(g)
		}
	}
	return guesses
}

// checkFig8c asserts Figure 8(c)'s shape: at every session count the
// FLID-DS average is within 0.55..1.45 of FLID-DL's.
func checkFig8c(l *ledger, res *scenario.Result) {
	ok := len(res.Curves) == 2 && len(res.Curves[0].Points) == len(res.Curves[1].Points) && len(res.Curves[0].Points) > 0
	detail := "curves missing"
	if ok {
		dl, ds := res.Curves[0].Points, res.Curves[1].Points
		for i := range dl {
			if ds[i].Y < 0.55*dl[i].Y || ds[i].Y > 1.45*dl[i].Y {
				ok = false
				detail = fmt.Sprintf("M=%.0f: DS %.0f vs DL %.0f Kbps", dl[i].X, ds[i].Y, dl[i].Y)
				break
			}
		}
	}
	l.check("Fig8c DL and DS averages agree", ok, detail)
}

// ---------------------------------------------------------------------------
// campaign: a fuzz campaign followed by a hunt.

const (
	// fuzzBatch is the number of fuzz seeds per unit, chosen for run
	// length alone.
	fuzzBatch = 512
	// fuzzSlots is how many consecutive batches the benchmark seed
	// selects among: seed 1 runs seeds 1..512, seed 2 513..1024, and so
	// on, wrapping after 32 batches, so every seed stays inside the
	// scanned corpus whose failures knownFailures records.
	fuzzSlots = 32
)

// campaignStart maps a benchmark seed to the first fuzz seed of its batch.
func campaignStart(seed uint64) uint64 {
	return 1 + ((seed-1)%fuzzSlots)*fuzzBatch
}

// huntGolden reads the hunt configuration testdata/hunt_golden.json pins.
func huntGolden() (fuzzing.HuntConfig, []byte, error) {
	js, err := os.ReadFile(filepath.Join("testdata", "hunt_golden.json"))
	if err != nil {
		return fuzzing.HuntConfig{}, nil, err
	}
	var rep fuzzing.HuntReport
	if err := json.Unmarshal(js, &rep); err != nil {
		return fuzzing.HuntConfig{}, nil, fmt.Errorf("hunt_golden.json: %w", err)
	}
	return rep.Config, js, nil
}

func campaignWorkload() *workload {
	return &workload{
		name:        "campaign",
		setupPasses: 5,
		setupOnly:   campaignSetup,
		unit:        campaignUnit,
		after:       campaignGoldens,
		parallel:    true,
	}
}

// campaignSetup builds every spec of the batch to Start as fuzzing.Run
// would, without running it: the campaign's per-point set-up.
func campaignSetup(r *runner, parent int) ([]setupSample, error) {
	id := r.tr.begin(parent, "setup")
	defer r.tr.end(id, nil)
	start := campaignStart(r.seed)
	var all []setupSample
	for i := uint64(0); i < fuzzBatch; i++ {
		var sp fuzzing.Spec
		r.call(id, "Generate", func() { sp = fuzzing.Generate(start + i) })
		ss, ok := specSetup(r, id, sp)
		if ok {
			all = append(all, ss)
		}
	}
	return all, nil
}

// specSetup is fuzzing.Run up to Start. ok is false when the spec fails
// to build; its audited run reports that failure.
func specSetup(r *runner, parent int, sp fuzzing.Spec) (ss setupSample, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	opts, err := sp.Options()
	if err != nil {
		return ss, false
	}
	audit := []deltasigma.AuditOption{deltasigma.AuditEvery(fuzzing.AuditInterval)}
	if o := sp.Oracle; o != nil {
		audit = append(audit, deltasigma.AuditSuppression(deltasigma.SuppressionOracle{
			Session: o.Session, From: sim.Seconds(o.FromSec), Factor: o.Factor, FloorKbps: o.FloorKbps,
		}))
	}
	opts = append(opts, deltasigma.WithAudit(audit...))
	var e *deltasigma.Experiment
	t0 := time.Now()
	ss.new = r.call(parent, "New", func() { e, err = deltasigma.New(opts...) })
	if err != nil {
		return ss, false
	}
	ss.attach = r.call(parent, "Wire", func() { sp.Wire(e) })
	ss.start = r.call(parent, "Start", e.Start)
	ss.total = time.Since(t0)
	return ss, true
}

func campaignUnit(r *runner) (unitStats, error) {
	var u unitStats
	root := r.tr.begin(0, "campaign")
	defer r.tr.end(root, nil)
	start := campaignStart(r.seed)
	for i := uint64(0); i < fuzzBatch; i++ {
		r.call(root, "Generate", func() { u.simSec += fuzzing.Generate(start + i).Duration().Sec() })
	}
	cfg, _, err := huntGolden()
	if err != nil {
		return u, err
	}
	cfg.Seed, cfg.Workers = r.seed, r.workers

	m0 := readMem()
	t0 := time.Now()
	var outs []fuzzing.Outcome
	var idle, outstanding float64
	if r.tr == nil {
		outs = fuzzing.Campaign(start, fuzzBatch, r.workers)
	} else {
		outs, u.pointsMs, idle, outstanding = tracedCampaign(r, root, start)
	}
	u.timed = time.Since(t0)
	u.since(m0)

	var rep fuzzing.HuntReport
	hunt := r.call(root, "Hunt", func() { rep = fuzzing.Hunt(cfg) })
	u.points = float64(len(outs) + rep.Evaluated)

	for _, o := range outs {
		r.led.checkFuzzOutcome(o.Seed, o.Pass, o.Violations, o.Err)
	}
	if err := r.sameDigest("campaign fuzz summary", fuzzing.Summarize(outs)); err != nil {
		return u, err
	}
	if err := r.sameDigest("campaign hunt report", rep); err != nil {
		return u, err
	}
	if r.tr != nil {
		u.layer = map[string]float64{
			"fuzzing.hunt_s":                 hunt.Seconds(),
			"campaign.worker_idle_share":     idle,
			"packet.outstanding_after_drain": outstanding,
		}
	}
	return u, nil
}

// tracedCampaign is fuzzing.Campaign with a span around each point: the
// same worker pool, Generate and Run per seed and one packet pool per
// worker. It also returns the share of worker time spent idle while the
// slowest points finished, and the packets left outstanding in the
// worker pools.
func tracedCampaign(r *runner, parent int, start uint64) ([]fuzzing.Outcome, []float64, float64, float64) {
	id := r.tr.begin(parent, "Campaign")
	defer r.tr.end(id, nil)
	n := fuzzBatch
	workers := campaign.EffectiveWorkers(n, r.workers)
	outs := make([]fuzzing.Outcome, n)
	ms := make([]float64, n)
	pools := make([]*deltasigma.PacketPool, workers)
	for i := range pools {
		pools[i] = &deltasigma.PacketPool{}
	}
	lastEnd := make([]time.Time, workers)
	var mu sync.Mutex
	t0 := time.Now()
	errs := campaign.Run(n, workers, func(w, i int) error {
		var sp fuzzing.Spec
		r.call(id, "Generate", func() { sp = fuzzing.Generate(start + uint64(i)) })
		d := r.call(id, "fuzzing.Run", func() { outs[i] = fuzzing.Run(sp, pools[w]) })
		ms[i] = float64(d) / 1e6
		mu.Lock()
		lastEnd[w] = time.Now()
		mu.Unlock()
		return nil
	})
	end := time.Now()
	for i, err := range errs {
		if err != nil {
			outs[i] = fuzzing.Outcome{Seed: start + uint64(i), Err: err.Error()}
		}
	}
	var idle time.Duration
	var outstanding float64
	for w := range lastEnd {
		idle += end.Sub(lastEnd[w])
		outstanding += float64(pools[w].Outstanding())
	}
	return outs, ms, ratio(float64(idle), float64(end.Sub(t0))*float64(workers)), outstanding
}

// campaignGoldens checks the pinned corpus: fuzz seeds 1..64 and the
// pinned hunt must reproduce testdata/fuzz_golden.json and
// testdata/hunt_golden.json byte for byte.
func campaignGoldens(r *runner) error {
	want, err := os.ReadFile(filepath.Join("testdata", "fuzz_golden.json"))
	if err != nil {
		return err
	}
	var pinned []fuzzing.Summary
	if err := json.Unmarshal(want, &pinned); err != nil {
		return fmt.Errorf("fuzz_golden.json: %w", err)
	}
	var sums []fuzzing.Summary
	r.call(0, "Campaign", func() { sums = fuzzing.Summarize(fuzzing.Campaign(1, len(pinned), r.workers)) })
	got, err := json.MarshalIndent(sums, "", "  ")
	if err != nil {
		return err
	}
	r.led.check("fuzz seeds 1..64 match fuzz_golden.json", bytes.Equal(append(got, '\n'), want), "corpus digest differs")

	cfg, wantHunt, err := huntGolden()
	if err != nil {
		return err
	}
	cfg.Workers = r.workers
	var rep fuzzing.HuntReport
	r.call(0, "Hunt", func() { rep = fuzzing.Hunt(cfg) })
	gotHunt, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	r.led.check("hunt report matches hunt_golden.json", bytes.Equal(append(gotHunt, '\n'), wantHunt), "report differs")
	return nil
}
