package fuzzing

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"deltasigma"
)

// failingSpec is a handcrafted scenario that deterministically fails: the
// suppression oracle pointed at the unprotected FLID-DL baseline, where
// the inflated-subscription attack succeeds by design. The junk around it
// (second session, cross traffic, a harmless link-delay event) is what the
// shrinker should strip away.
func failingSpec() Spec {
	return Spec{
		Seed:        5,
		Protocol:    "flid-dl",
		Topology:    TopoSpec{Kind: "dumbbell", CapacitiesBps: []int64{600_000}},
		DurationSec: 10,
		Sessions: []SessionSpec{
			{Receivers: []ReceiverSpec{{}, {}, {Attacker: true}}},
			{Receivers: []ReceiverSpec{{}}},
		},
		TCP:         1,
		CBRFraction: 0.2,
		Events: []EventSpec{
			{Kind: EvOnset, AtSec: 2, Session: 1, Receiver: 3},
			{Kind: EvDelay, AtSec: 3, Link: 0, DelayMs: 25},
		},
		Oracle: &OracleSpec{Session: 1, FromSec: 6, Factor: 1.25, FloorKbps: 30},
	}
}

// A spec is a pure function of its seed, and it survives a JSON round trip
// field for field — the property repro files depend on.
func TestGenerateDeterministicAndSerializable(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%+v\n%+v", seed, a, b)
		}
		js, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(js, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("seed %d: spec changed across JSON round trip:\n%+v\n%+v", seed, a, back)
		}
	}
}

// Generated specs build valid experiments: every option and timeline event
// must resolve (a generator that emits invalid specs would report build
// errors as fuzz findings and drown real ones).
func TestGeneratedSpecsAreValid(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		sp := Generate(seed)
		opts, err := sp.Options()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exp, err := deltasigma.New(opts...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sp.Wire(exp)
		exp.Start() // panics on an unresolvable timeline
	}
}

// Same seed, same run: re-running a spec reproduces the fingerprint, with
// and without a warm shared pool.
func TestRunReproducible(t *testing.T) {
	sp := Generate(17)
	a := Run(sp, nil)
	pool := &deltasigma.PacketPool{}
	b := Run(sp, pool)
	c := Run(sp, pool) // the now-warm pool must not change the outcome
	if a.Fingerprint != b.Fingerprint || b.Fingerprint != c.Fingerprint {
		t.Fatalf("fingerprints diverge: %s / %s / %s", a.Fingerprint, b.Fingerprint, c.Fingerprint)
	}
	if !a.Pass {
		t.Fatalf("seed 17 unexpectedly fails: %+v", a.Violations)
	}
}

// A join scripted past the end of the run must not restart its receiver
// after StopTraffic. Seeds 399 and 3657 script such a join for an abr-cf
// receiver, whose per-slot congestion reports would otherwise keep one
// feedback packet in flight at the drain audit.
func TestLateJoinDoesNotBreakDrain(t *testing.T) {
	for _, seed := range []uint64{399, 3657} {
		if out := Run(Generate(seed), nil); out.Failed() {
			t.Errorf("seed %d failed: %+v %s", seed, out.Violations, out.Err)
		}
	}
}

// Campaign outcomes are identical at any worker count — the property the
// fuzz-smoke CI job and the golden corpus rely on.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	serial := Campaign(1, 12, 1)
	parallel := Campaign(1, 12, 4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("campaign outcomes differ between workers=1 and workers=4:\n%+v\n%+v", serial, parallel)
	}
	for _, o := range serial {
		if o.Failed() {
			t.Errorf("seed %d failed: %+v %s", o.Seed, o.Violations, o.Err)
		}
	}
}

// The runner detects failures: the oracle on the unprotected baseline
// produces a suppression violation, typed and serializable.
func TestRunDetectsOracleFailure(t *testing.T) {
	out := Run(failingSpec(), nil)
	if !out.Failed() {
		t.Fatal("flid-dl attack under the oracle did not fail")
	}
	if len(out.Violations) == 0 || out.Violations[0].Rule != "suppression-oracle" {
		t.Fatalf("expected a suppression-oracle violation, got %+v (err %q)", out.Violations, out.Err)
	}
}

// A spec that cannot build reports through Err instead of panicking the
// campaign.
func TestRunContainsBuildErrors(t *testing.T) {
	sp := failingSpec()
	sp.Protocol = "no-such-protocol"
	out := Run(sp, nil)
	if !out.Failed() || out.Err == "" {
		t.Fatalf("bad protocol not surfaced: %+v", out)
	}
	sp = failingSpec()
	sp.Events = append(sp.Events, EventSpec{Kind: EvOnset, AtSec: 1, Session: 9})
	out = Run(sp, nil)
	if !out.Failed() || out.Err == "" {
		t.Fatalf("unresolvable timeline not surfaced: %+v", out)
	}
}

// Shrinking keeps the failure and strips the junk: the decoy session, the
// cross traffic and the irrelevant link event all go; the attacker, its
// onset and at least one honest receiver must survive (without them the
// oracle comparison is vacuous and the candidate passes, so the shrinker
// can never remove them).
func TestShrinkMinimizesFailingSpec(t *testing.T) {
	spec, out := Shrink(failingSpec(), 0)
	if !out.Failed() {
		t.Fatal("shrunk spec no longer fails")
	}
	if len(spec.Sessions) != 1 {
		t.Errorf("decoy session survived: %d sessions", len(spec.Sessions))
	}
	if spec.TCP != 0 || spec.CBRFraction != 0 {
		t.Errorf("cross traffic survived: tcp=%d cbr=%g", spec.TCP, spec.CBRFraction)
	}
	for _, ev := range spec.Events {
		if ev.Kind == EvDelay {
			t.Errorf("irrelevant delay event survived")
		}
	}
	honest, attackers := populations(spec.Sessions[0])
	if attackers == 0 || honest == 0 {
		t.Fatalf("shrink removed a load-bearing receiver: honest=%d attackers=%d", honest, attackers)
	}
	hasOnset := false
	for _, ev := range spec.Events {
		if ev.Kind == EvOnset {
			hasOnset = true
		}
	}
	if !hasOnset {
		t.Error("shrink removed the attack onset yet the spec still fails")
	}
	// The minimized spec must replay its own failure from serialized form.
	js, _ := json.Marshal(spec)
	var back Spec
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if re := Run(back, nil); !re.Failed() || re.Fingerprint != out.Fingerprint {
		t.Fatalf("serialized repro does not replay: pass=%v fp %s vs %s", re.Pass, re.Fingerprint, out.Fingerprint)
	}
}

// Repros minimize across protocol swaps: a suppression failure staged on
// the dsc competitor also reproduces on the plain FLID-DL baseline (both
// are unprotected, so the inflated subscription wins either way), and the
// shrinker must land there. A failure that only the original protocol
// exhibits keeps its protocol — swapping an attacker-carrying spec onto
// abr-cf trips the typed no-attacker panic, a different failure key, so
// the swap pass can never sneak one in.
func TestShrinkMinimizesAcrossProtocolSwaps(t *testing.T) {
	sp := failingSpec()
	sp.Protocol = "dsc"
	if out := Run(sp, nil); !out.Failed() {
		t.Fatalf("dsc attack under the oracle did not fail: %+v", out)
	}
	shrunk, out := Shrink(sp, 0)
	if !out.Failed() {
		t.Fatal("shrunk spec no longer fails")
	}
	if shrunk.Protocol != "flid-dl" {
		t.Errorf("repro not minimized across protocol swaps: protocol %q, want flid-dl", shrunk.Protocol)
	}
	if len(out.Violations) == 0 || out.Violations[0].Rule != "suppression-oracle" {
		t.Fatalf("swap changed the failure class: %+v (err %q)", out.Violations, out.Err)
	}
	honest, attackers := populations(shrunk.Sessions[0])
	if attackers == 0 || honest == 0 {
		t.Fatalf("swap pass lost a load-bearing receiver: honest=%d attackers=%d", honest, attackers)
	}
	// The swapped repro must replay its own failure from serialized form.
	js, _ := json.Marshal(shrunk)
	var back Spec
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if re := Run(back, nil); !re.Failed() || re.Fingerprint != out.Fingerprint {
		t.Fatalf("swapped repro does not replay: pass=%v fp %s vs %s", re.Pass, re.Fingerprint, out.Fingerprint)
	}
}

// A load-bearing cohort is collapsed to the smallest member count that
// still reproduces, not dropped: here the cohort is the attacked session's
// only honest population, so removing it makes the oracle vacuous and the
// candidate passes — the shrinker must instead halve the membership all the
// way down to one.
func TestShrinkCollapsesCohortToSmallestCount(t *testing.T) {
	sp := Spec{
		Seed:        9,
		Protocol:    "flid-dl",
		Topology:    TopoSpec{Kind: "dumbbell", CapacitiesBps: []int64{600_000}},
		DurationSec: 10,
		Sessions: []SessionSpec{{
			Receivers: []ReceiverSpec{{Attacker: true}},
			Cohorts:   []int{100_000},
		}},
		Events: []EventSpec{{Kind: EvOnset, AtSec: 2, Session: 1, Receiver: 1}},
		Oracle: &OracleSpec{Session: 1, FromSec: 6, Factor: 1.25, FloorKbps: 30},
	}
	if out := Run(sp, nil); !out.Failed() {
		t.Fatalf("cohort under attack did not trip the oracle: %+v", out)
	}
	shrunk, out := Shrink(sp, 0)
	if !out.Failed() {
		t.Fatal("shrunk spec no longer fails")
	}
	co := shrunk.Sessions[0].Cohorts
	if len(co) != 1 {
		t.Fatalf("load-bearing cohort removed: %v", co)
	}
	if co[0] != 1 {
		t.Errorf("cohort not collapsed to the minimal count: %d members", co[0])
	}
	if re := Run(shrunk, nil); !re.Failed() || re.Fingerprint != out.Fingerprint {
		t.Fatalf("collapsed repro does not replay: pass=%v", re.Pass)
	}
}

// Repro files round-trip and replay.
func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repro_5.json")
	spec, out := Shrink(failingSpec(), 40)
	if err := WriteRepro(path, Repro{Spec: spec, Outcome: out}); err != nil {
		t.Fatal(err)
	}
	r, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Spec, spec) {
		t.Fatalf("repro spec changed on disk:\n%+v\n%+v", r.Spec, spec)
	}
	replay := Run(r.Spec, nil)
	if replay.Fingerprint != out.Fingerprint || !replay.Failed() {
		t.Fatalf("repro does not replay: %+v vs %+v", replay, out)
	}
}

// A bare Spec file (hand-written reproducer) loads too.
func TestReadBareSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	js, _ := json.Marshal(failingSpec())
	if err := writeFile(path, js); err != nil {
		t.Fatal(err)
	}
	r, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Spec, failingSpec()) {
		t.Fatalf("bare spec mangled: %+v", r.Spec)
	}
}

// writeFile is a tiny test helper (os.WriteFile with the repro mode).
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
