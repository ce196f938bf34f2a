package xtverify

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xtverify/internal/cells"
	"xtverify/internal/deflite"
	"xtverify/internal/design"
	"xtverify/internal/extract"
	"xtverify/internal/prune"
)

// streamBenchDSP is the acceptance design of the streaming-ingest work: the same
// 2-channel configuration BenchmarkChipVerify runs (~148 analyzed clusters).
func streamBenchDSP() DSPConfig {
	return DSPConfig{Seed: 1999, Channels: 2, TracksPerChannel: 80,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8}
}

// streamReportText renders rep with every run-dependent diagnostic normalized
// away, leaving exactly the bytes the identity contract pins.
func streamReportText(t *testing.T, rep *Report) string {
	t.Helper()
	if rep.Diagnostics != nil {
		rep.Diagnostics.WallTime = 0
		for i := range rep.Diagnostics.Clusters {
			rep.Diagnostics.Clusters[i].WallTime = 0
		}
	}
	var b bytes.Buffer
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkPruneOracle asserts rep.Prune against prune.ComputeStats over v's
// parasitics. The engine derives the summary from its own single clustering
// pass, so ComputeStats is an independent oracle for it.
func checkPruneOracle(t *testing.T, mode string, rep *Report, v *Verifier) {
	t.Helper()
	st := prune.ComputeStats(v.par, v.pruneOptions())
	want := PruneSummary{
		RawMeanClusterNets:    st.RawMeanSize,
		RawMaxClusterNets:     st.RawMaxSize,
		PrunedMeanClusterNets: st.PrunedMeanSize,
		PrunedMaxClusterNets:  st.PrunedMaxSize,
		ClustersAnalyzed:      st.PrunedClusters,
	}
	if rep.Prune != want {
		t.Errorf("%s run: Report.Prune = %+v, prune.ComputeStats gives %+v", mode, rep.Prune, want)
	}
}

// TestStreamReportIdentityDSP is the tentpole acceptance test: a streamed
// run's report must be byte-identical to a materialized run's — serial,
// parallel, cache-off and warm-store alike, with screening on.
func TestStreamReportIdentityDSP(t *testing.T) {
	dspCfg := streamBenchDSP()

	variants := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"serial", func(t *testing.T) Config { return Config{Model: TimingLibrary, Workers: 1} }},
		{"workers8", func(t *testing.T) Config { return Config{Model: TimingLibrary, Workers: 8} }},
		{"cache-off", func(t *testing.T) Config {
			return Config{Model: TimingLibrary,
				DisableROMCache: true, DisablePreparedTransients: true}
		}},
		{"warm-store", func(t *testing.T) Config {
			store, err := OpenROMStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return Config{Model: TimingLibrary, ROMStore: store}
		}},
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			mv, err := NewVerifierFromDSP(dspCfg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mrep, err := mv.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := streamReportText(t, mrep)
			checkPruneOracle(t, "materialized", mrep, mv)
			if mrep.Prune.ClustersAnalyzed < 100 {
				t.Fatalf("bench design yields only %d clusters; the identity check needs a real population", mrep.Prune.ClustersAnalyzed)
			}

			cfg.StreamIngest = true
			runs := 1
			if tc.name == "warm-store" {
				runs = 2 // second run replays reductions from disk
			}
			for i := 0; i < runs; i++ {
				sv, err := NewVerifierFromDSP(dspCfg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				srep, err := sv.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got := streamReportText(t, srep); got != want {
					t.Fatalf("streamed run %d report differs from materialized:\n--- streamed\n%s\n--- materialized\n%s", i, got, want)
				}
				checkPruneOracle(t, "streamed", srep, mv)
			}
		})
	}
}

// TestStreamReportIdentityDEF round-trips the bench design through DEF and
// checks a streamed DEF ingest against the materialized DEF ingest.
func TestStreamReportIdentityDEF(t *testing.T) {
	mv, err := NewVerifierFromDSP(streamBenchDSP(), Config{Model: TimingLibrary})
	if err != nil {
		t.Fatal(err)
	}
	var def bytes.Buffer
	if err := mv.WriteDEF(&def); err != nil {
		t.Fatal(err)
	}
	defBytes := def.Bytes()

	dv, err := NewVerifierFromDEF(bytes.NewReader(defBytes), Config{Model: TimingLibrary, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	drep, err := dv.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := streamReportText(t, drep)

	sv, err := NewVerifierFromDEF(bytes.NewReader(defBytes), Config{Model: TimingLibrary, StreamIngest: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	srep, err := sv.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := streamReportText(t, srep); got != want {
		t.Fatalf("streamed DEF report differs from materialized:\n--- streamed\n%s\n--- materialized\n%s", got, want)
	}
}

// TestStreamCounters checks the schema-v4 streaming counters against the
// report's own accounting.
func TestStreamCounters(t *testing.T) {
	cfg := Config{Model: TimingLibrary, StreamIngest: true, Collector: NewMetricsCollector()}
	sv, err := NewVerifierFromDSP(streamBenchDSP(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Diagnostics.Metrics
	if s == nil {
		t.Fatal("no metrics snapshot")
	}
	if got := s.Counters["nets_streamed"]; got != int64(rep.NetCount) {
		t.Errorf("nets_streamed = %d, want the report's net count %d", got, rep.NetCount)
	}
	if got := s.Counters["clusters_emitted_eager"]; got != int64(rep.Prune.ClustersAnalyzed) {
		t.Errorf("clusters_emitted_eager = %d, want clusters analyzed %d", got, rep.Prune.ClustersAnalyzed)
	}
	peak := s.Counters["frontier_peak_nets"]
	if peak <= 0 || peak > int64(rep.NetCount) {
		t.Errorf("frontier_peak_nets = %d, want in (0, %d]", peak, rep.NetCount)
	}
}

// TestStreamGuards pins every materialized-only API to ErrStreamIngest on a
// streaming verifier, and the streaming-impossible knobs to construction
// failures.
func TestStreamGuards(t *testing.T) {
	sv, err := NewVerifierFromDSP(smallDSP(), Config{Model: FixedResistance, StreamIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	checks := map[string]func() error{
		"WriteSPEF":    func() error { return sv.WriteSPEF(&sink) },
		"WriteVerilog": func() error { return sv.WriteVerilog(&sink) },
		"WriteDEF":     func() error { return sv.WriteDEF(&sink) },
		"RunEM":        func() error { _, err := sv.RunEM(EMOptions{}); return err },
		"TraceGlitch":  func() error { _, err := sv.TraceGlitch("ch0/n0"); return err },
		"AdviseRepair": func() error { _, err := sv.AdviseRepair("ch0/n0"); return err },
		"RunTimingImpact": func() error {
			_, err := sv.RunTimingImpact(true)
			return err
		},
		"RefineTimingWindows": func() error {
			_, err := sv.RefineTimingWindows(context.Background())
			return err
		},
		"BaseRun": func() error { _, err := sv.BaseRun(&Report{Diagnostics: &Diagnostics{}}); return err },
		"Reverify": func() error {
			_, _, err := sv.Reverify(&BaseRun{})
			return err
		},
	}
	//xtlint:sorted independent per-API subchecks; no output ordering is asserted
	for name, fn := range checks {
		if err := fn(); !errors.Is(err, ErrStreamIngest) {
			t.Errorf("%s on a streaming verifier = %v, want ErrStreamIngest", name, err)
		}
	}
	if _, err := NewVerifierFromDSP(smallDSP(), Config{StreamIngest: true, UseTimingWindows: true}); !errors.Is(err, ErrStreamIngest) {
		t.Errorf("StreamIngest+UseTimingWindows construction = %v, want ErrStreamIngest", err)
	}
}

// TestStreamStrictFailFast checks strict mode through the streaming engine:
// an injected cluster failure aborts the run with that failure, not a
// cancellation echo.
func TestStreamStrictFailFast(t *testing.T) {
	sv, err := NewVerifierFromDSP(streamBenchDSP(), Config{Model: TimingLibrary, StreamIngest: true, Strict: true, Workers: 4, DisableScreening: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected cluster failure")
	sv.faultHook = func(victim string, stage FallbackStage) error {
		if victim == "ch1/n40" {
			return boom
		}
		return nil
	}
	_, err = sv.RunContext(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("strict streamed run = %v, want the injected failure", err)
	}
}

// testNet is a driven, received single-segment metal-2 net at height y.
func testNet(name string, y float64) *design.Net {
	drv, _ := cells.ByName("BUF_X2")
	rcv, _ := cells.ByName("INV_X1")
	return &design.Net{
		Name:      name,
		Drivers:   []design.Pin{{Inst: "D" + name, Cell: drv, Pin: "Z", PosX: 0, PosY: y}},
		Receivers: []design.Pin{{Inst: "R" + name, Cell: rcv, Pin: "A", PosX: 50, PosY: y}},
		Route:     []design.Segment{{Layer: 2, X0: 0, Y0: y, X1: 50, Y1: y, Width: 0.6}},
	}
}

// descendingSource streams nets bottom-up — the frontier invariant's
// canonical violation.
type descendingSource struct{}

func (descendingSource) Stream(ctx context.Context, sink StreamSink) error {
	if err := sink.StartDesign("descending"); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		// 300, 200, 100, 0: strictly descending
		if err := sink.AddNet(testNet(fmt.Sprintf("d%d", i), float64(3-i)*100)); err != nil {
			return err
		}
	}
	return nil
}

// lateDuplicateSource streams nets up the die 100 µm apart and then repeats
// the first net's name, by which time the first occurrence has long retired
// from the frontier and its component has closed.
type lateDuplicateSource struct{}

func (lateDuplicateSource) Stream(ctx context.Context, sink StreamSink) error {
	if err := sink.StartDesign("latedup"); err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		if err := sink.AddNet(testNet(fmt.Sprintf("n%d", i), float64(i)*100)); err != nil {
			return err
		}
	}
	return sink.AddNet(testNet("n0", 600))
}

// wantDuplicateNet asserts err is the typed duplicate-net-name error.
func wantDuplicateNet(t *testing.T, err error) {
	t.Helper()
	var pe *deflite.ParseError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "duplicate net") {
		t.Fatalf("err = %v, want a *deflite.ParseError for the duplicate net name", err)
	}
}

// TestStreamLateDuplicateNet: a duplicate whose first occurrence retired
// long before it arrived must still fail the streamed run, not stream
// through as a second, unrelated net.
func TestStreamLateDuplicateNet(t *testing.T) {
	sv, err := NewStreamVerifier(lateDuplicateSource{}, Config{Model: FixedResistance, StreamFrontierSlackUM: 50})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.RunContext(context.Background())
	if rep != nil {
		t.Errorf("late duplicate produced a report (%d nets)", rep.NetCount)
	}
	wantDuplicateNet(t, err)
}

// TestDEFDuplicateNetTyped renames one NETS entry to its neighbour's name:
// materialized construction and a streamed run must both refuse it with the
// typed error instead of panicking.
func TestDEFDuplicateNetTyped(t *testing.T) {
	var def bytes.Buffer
	if err := engineVerifier(t, Config{}).WriteDEF(&def); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(def.String(), "\n")
	var prev string
	inNets := false
	for i, line := range lines {
		if strings.HasPrefix(line, "NETS ") {
			inNets = true
			continue
		}
		if !inNets || !strings.HasPrefix(line, "- ") {
			continue
		}
		name := strings.Fields(line)[1]
		if prev != "" {
			lines[i] = strings.Replace(line, name, prev, 1)
			break
		}
		prev = name
	}
	dup := strings.Join(lines, "\n")

	_, err := NewVerifierFromDEF(strings.NewReader(dup), Config{Model: FixedResistance})
	wantDuplicateNet(t, err)

	sv, err := NewVerifierFromDEF(strings.NewReader(dup), Config{Model: FixedResistance, StreamIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sv.RunContext(context.Background())
	wantDuplicateNet(t, err)
}

// TestStreamFrontierViolation checks that out-of-order input surfaces the
// typed extract.FrontierError instead of silently dropping couplings.
func TestStreamFrontierViolation(t *testing.T) {
	sv, err := NewStreamVerifier(descendingSource{}, Config{Model: FixedResistance, StreamFrontierSlackUM: 50})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sv.RunContext(context.Background())
	var fe *extract.FrontierError
	if !errors.As(err, &fe) {
		t.Fatalf("descending-y stream = %v, want *extract.FrontierError", err)
	}
	//xtlint:errcmp parser-style test asserting the rendered invariant hint
	if !strings.Contains(fe.Error(), "frontier invariant") {
		t.Errorf("frontier error text %q lacks the invariant hint", fe.Error())
	}
}
