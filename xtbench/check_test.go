package main

import (
	"os"
	"testing"

	"xtverify"
	"xtverify/internal/dsp"
)

// smallWorkload is a signoff workload small enough for a unit test.
func smallWorkload() *workload {
	return &workload{
		name:    "test",
		kind:    kindSignoff,
		designs: 2, // two references, computed concurrently
		dsp: func(seed int64) dsp.Config {
			return dsp.Config{Seed: seed, Channels: 1, TracksPerChannel: 30, ChannelLengthUM: 600,
				BusFraction: 0.06, LatchFraction: 0.25, ClockSpines: 1}
		},
		cfg: xtverify.Config{Model: xtverify.FixedResistance, Workers: 2},
	}
}

func TestPerturbedReportFails(t *testing.T) {
	w := smallWorkload()
	ins, err := w.generate(3)
	if err != nil {
		t.Fatal(err)
	}
	oi, err := prepare(w, ins, nil, 3, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(oi.paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := verify(f, w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("the test design has no violations to perturb")
	}
	var tl tally
	tl.record(check(rep, oi.refs[0]))
	if tl.failed != 0 {
		t.Fatalf("unperturbed report failed its check: %v", tl.firstErr)
	}

	rep.Violations[0].PeakV += 1e-9
	tl.record(check(rep, oi.refs[0]))
	res := tl.result(nil)
	if res.Failed != 1 || res.Correct {
		t.Fatalf("perturbed report: failed %d, correct %v", res.Failed, res.Correct)
	}
	if frac := float64(res.Failed) / float64(res.Attempted); frac <= 0 {
		t.Errorf("fail_frac = %v, want > 0", frac)
	}
}

func TestPerturbedReplayFails(t *testing.T) {
	w := smallWorkload()
	ins, err := w.generate(5)
	if err != nil {
		t.Fatal(err)
	}
	oi, err := prepare(w, ins, nil, 5, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(w, newRecorder(true))
	rc, err := rp.materialized(oi.paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(rc, oi.refs[0].rep); err != nil {
		t.Fatalf("replay does not reproduce the reference: %v", err)
	}
	if len(rc.violations) == 0 {
		t.Fatal("the test design has no violations to perturb")
	}
	rc.violations[0].Propagates = !rc.violations[0].Propagates
	if checkReplay(rc, oi.refs[0].rep) == nil {
		t.Error("a perturbed replay passed its check")
	}
}

func TestECOEditsAreSeeded(t *testing.T) {
	def := []byte("COMPONENTS 2 ;\n- u1 INV_X1 + PLACED ( 0 0 ) N ;\n- u2 INV_X1 + PLACED ( 0 0 ) N ;\n")
	got, err := replaceCell(def, "u2", "INV_X1", "INV_X2")
	if err != nil {
		t.Fatal(err)
	}
	want := "COMPONENTS 2 ;\n- u1 INV_X1 + PLACED ( 0 0 ) N ;\n- u2 INV_X2 + PLACED ( 0 0 ) N ;\n"
	if string(got) != want {
		t.Errorf("replaceCell:\n%s\nwant\n%s", got, want)
	}
	if _, err := replaceCell(def, "u3", "INV_X1", "INV_X2"); err == nil {
		t.Error("replacing a missing component succeeded")
	}
	if designSeed(1, 0) == designSeed(1, 1) || designSeed(1, 0) != designSeed(1, 0) || designSeed(1, 0) < 0 {
		t.Error("design seeds are not distinct, repeatable and non-negative")
	}
}
