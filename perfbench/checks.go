package main

import (
	"fmt"
	"slices"
	"sort"

	"deltasigma"
)

// knownFailures are fuzz seeds whose audited run fails on the source tree
// the benchmark was defined on, with the exact set of rules each violates.
// They stay in the campaign and count in `failed`; they leave `correct`
// true only while they fail exactly this way. Seed 399 is abr-cf on a chain
// with a link-delay change and a flap: after the drain one packet is still
// in flight on r2->r1; seed 3657 is the same protocol and topology leaving
// a packet on r0->src5; seed 15731 is flid-ds-threshold on a dumbbell
// whose attacker beats the suppression oracle. These are every failure
// among the seeds campaignStart can select (1..16384).
var knownFailures = map[uint64][]string{
	399:   {"link-drained", "pool-balance"},
	3657:  {"link-drained", "pool-balance"},
	15731: {"suppression-oracle"},
}

// ledger counts the output checks of a run. A failed check is either
// known (recorded in knownFailures, counted but expected) or unexpected,
// which makes the run incorrect. Checks run on the main goroutine only.
type ledger struct {
	attempted  int
	failed     int
	known      []string
	unexpected []string
}

// check records one output check; detail says what was wrong when ok is
// false.
func (l *ledger) check(name string, ok bool, detail string) {
	l.record(name, ok, false, detail)
}

// record counts one check; a failure marked known does not make the run
// incorrect.
func (l *ledger) record(name string, ok, known bool, detail string) {
	l.attempted++
	if ok {
		return
	}
	l.failed++
	msg := fmt.Sprintf("%s: %s", name, detail)
	if known {
		l.known = append(l.known, msg)
	} else {
		l.unexpected = append(l.unexpected, msg)
	}
}

// correct reports whether every failed check was a known failure.
func (l *ledger) correct() bool {
	return len(l.unexpected) == 0
}

// failedRatio is failed checks over checks attempted.
func (l *ledger) failedRatio() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// ruleSet returns the sorted distinct rules of vs.
func ruleSet(vs []deltasigma.Violation) []string {
	var rules []string
	for _, v := range vs {
		if !slices.Contains(rules, v.Rule) {
			rules = append(rules, v.Rule)
		}
	}
	sort.Strings(rules)
	return rules
}

// checkFuzzOutcome records whether one fuzz point passed its audit. A
// failure on a seed listed in knownFailures with exactly the recorded
// rules is known; any other failure, including a known seed failing
// differently, is unexpected.
func (l *ledger) checkFuzzOutcome(seed uint64, pass bool, vs []deltasigma.Violation, errText string) {
	name := fmt.Sprintf("fuzz seed %d audit", seed)
	if pass {
		l.check(name, true, "")
		return
	}
	rules := ruleSet(vs)
	want, listed := knownFailures[seed]
	known := listed && errText == "" && slices.Equal(rules, want)
	detail := fmt.Sprintf("violated %v", rules)
	if errText != "" {
		detail = errText
	}
	l.record(name, false, known, detail)
}
