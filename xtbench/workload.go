package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"

	"xtverify"
	"xtverify/internal/cells"
	"xtverify/internal/deflite"
	"xtverify/internal/design"
	"xtverify/internal/dsp"
)

// kind selects what one op of a workload does.
type kind int

const (
	// kindSignoff: NewVerifierFromDEF + RunContext on a materialized design.
	kindSignoff kind = iota
	// kindStream: the same op with Config.StreamIngest.
	kindStream
	// kindECO: NewVerifierFromDEF(edited) + Reverify against a base run.
	kindECO
)

// workload is one named set of inputs and the op run on them.
type workload struct {
	name string
	kind kind
	// designs is how many designs one run generates from its seed; ops
	// cycle through them.
	designs int
	// edits is how many ECO edits one run prepares (kindECO only); ops
	// cycle through them.
	edits int
	// setups is how many fresh processes' set-up one end-to-end run
	// measures; setup_s is their median.
	setups int
	// minOps is the fewest timed ops an end-to-end run makes, however
	// long they take.
	minOps int
	dsp    func(seed int64) dsp.Config
	cfg    xtverify.Config
}

// chipConfig is the 40,100-net chip of the streaming workload: 100
// channels × 400 tracks, 70 µm channels at 1.8 µm pitch.
func chipConfig(seed int64) dsp.Config {
	return dsp.Config{Seed: seed, Channels: 100, TracksPerChannel: 400,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8}
}

// ecoChipConfig is the same chip cut to 50 channels (20,050 nets). At
// 40,100 nets one ECO run, with its base run and three cold set-up
// samples, took a minute, as long as the other two workloads' runs
// together.
func ecoChipConfig(seed int64) dsp.Config {
	c := chipConfig(seed)
	c.Channels = 50
	return c
}

var workloads = []*workload{
	{
		name: "dsp-signoff",
		kind: kindSignoff,
		// A design's memory peak depends on its seed (29–41 MB), and its
		// run time by up to ±10 %, so a run takes four designs.
		designs: 4,
		setups:  3,
		// The machine's speed drifts over tens of seconds, so a run
		// spans about forty seconds of ops.
		minOps: 12,
		// The xtverify CLI's default design: the paper-scale DSP cut to two
		// channels.
		dsp: func(seed int64) dsp.Config {
			c := dsp.DefaultConfig()
			c.Channels = 2
			c.Seed = seed
			return c
		},
		cfg: xtverify.Config{Model: xtverify.NonlinearCellModel, Workers: 2},
	},
	{
		name:    "chip-stream",
		kind:    kindStream,
		designs: 1,
		setups:  7,
		minOps:  3,
		dsp:     chipConfig,
		cfg:     xtverify.Config{Model: xtverify.FixedResistance, Workers: 2, StreamIngest: true},
	},
	{
		name:    "eco-reverify",
		kind:    kindECO,
		designs: 1,
		edits:   4,
		// Its ops are memory-bound and drift by ±15 % with the machine
		// from one op to the next, so a run takes the median of at least
		// twelve of them, and fewer set-up samples, each a cold base run,
		// to pay for it.
		setups: 3,
		minOps: 12,
		dsp:    ecoChipConfig,
		cfg:    xtverify.Config{Model: xtverify.FixedResistance, Workers: 2},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// input is one design as the program sees it: DEF bytes.
type input struct {
	des  *design.Design // the generator's view, for choosing ECO edits
	def  []byte
	nets int
}

// designSeed derives the i-th design seed of a run from the workload seed
// (splitmix64), so neighbouring seeds give unrelated designs.
func designSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// generate builds a run's designs from its seed and serialises each to DEF.
func (w *workload) generate(seed int64) ([]input, error) {
	var out []input
	for i := 0; i < w.designs; i++ {
		d, err := dsp.Generate(w.dsp(designSeed(seed, i)))
		if err != nil {
			return nil, fmt.Errorf("generate design %d: %w", i, err)
		}
		var b bytes.Buffer
		if err := deflite.Write(&b, d); err != nil {
			return nil, fmt.Errorf("write DEF of design %d: %w", i, err)
		}
		out = append(out, input{des: d, def: b.Bytes(), nets: len(d.Nets)})
	}
	return out, nil
}

// verify is one signoff or streaming op: parse the DEF and run the engine.
func verify(def io.Reader, cfg xtverify.Config) (*xtverify.Report, error) {
	v, err := xtverify.NewVerifierFromDEF(def, cfg)
	if err != nil {
		return nil, err
	}
	return v.RunContext(context.Background())
}

// ecoBase is a completed base verification an ECO op splices against.
type ecoBase struct {
	rep  *xtverify.Report
	base *xtverify.BaseRun
}

// runBase is the ECO workload's set-up: a cold materialized run of the base
// design and its BaseRun index.
func runBase(def io.Reader, cfg xtverify.Config) (*ecoBase, error) {
	v, err := xtverify.NewVerifierFromDEF(def, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := v.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	base, err := v.BaseRun(rep)
	if err != nil {
		return nil, err
	}
	return &ecoBase{rep: rep, base: base}, nil
}

// reverify is one ECO op: parse the edited DEF and splice against the base.
func reverify(def io.Reader, cfg xtverify.Config, base *xtverify.BaseRun) (*xtverify.Report, *xtverify.ReverifyStats, error) {
	v, err := xtverify.NewVerifierFromDEF(def, cfg)
	if err != nil {
		return nil, nil, err
	}
	return v.Reverify(base)
}

// ecoEdits picks up to n single-driver upsizes on victims the base run did
// not screen, in a seeded order, and returns the edited DEFs.
func ecoEdits(in input, rep *xtverify.Report, seed int64, n int) ([][]byte, []string, error) {
	var victims []string
	for _, c := range rep.Diagnostics.Clusters {
		if c.Stage != xtverify.StageScreened {
			victims = append(victims, c.Victim)
		}
	}
	sort.Strings(victims)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	var defs [][]byte
	var picked []string
	for _, name := range victims {
		if len(defs) == n {
			break
		}
		net, ok := in.des.NetByName(name)
		if !ok || len(net.Drivers) != 1 {
			continue
		}
		drv := net.Drivers[0]
		up := nextStronger(drv.Cell)
		if up == nil {
			continue
		}
		edited, err := replaceCell(in.def, drv.Inst, drv.Cell.Name, up.Name)
		if err != nil {
			return nil, nil, err
		}
		defs = append(defs, edited)
		picked = append(picked, fmt.Sprintf("%s %s->%s", name, drv.Cell.Name, up.Name))
	}
	if len(defs) == 0 {
		return nil, nil, fmt.Errorf("no upsizable unscreened victim among %d", len(victims))
	}
	return defs, picked, nil
}

// nextStronger is the same-kind library cell with the smallest drive
// strength above c's, or nil.
func nextStronger(c *cells.Cell) *cells.Cell {
	var best *cells.Cell
	for _, cand := range cells.Library() {
		if cand.Kind != c.Kind || cand.Strength <= c.Strength {
			continue
		}
		if best == nil || cand.Strength < best.Strength {
			best = cand
		}
	}
	return best
}

// replaceCell rebinds one placed component of a DEF to another cell.
func replaceCell(def []byte, inst, from, to string) ([]byte, error) {
	old := []byte("\n- " + inst + " " + from + " + PLACED")
	if bytes.Count(def, old) != 1 {
		return nil, fmt.Errorf("component %s %s not found exactly once in the DEF", inst, from)
	}
	return bytes.Replace(def, old, []byte("\n- "+inst+" "+to+" + PLACED"), 1), nil
}

// render is the report text every check compares: WriteText without the
// run-dependent Diagnostics block.
func render(rep *xtverify.Report) (string, error) {
	r := *rep
	r.Diagnostics = nil
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// reference is the expected output of one input, computed through a public
// path independent of the timed op. rep has no Diagnostics: the checks do
// not read them, and on the chip they list every cluster.
type reference struct {
	text string
	rep  *xtverify.Report
}

// referenceFor computes the reference of def: a strict serial Run for the
// signoff workload, a materialized RunContext for the streaming workload
// and a cold streamed RunContext of each edited design for the ECO
// workload.
func (w *workload) referenceFor(def []byte) (reference, error) {
	cfg := w.cfg
	var rep *xtverify.Report
	var err error
	switch w.kind {
	case kindSignoff:
		var v *xtverify.Verifier
		if v, err = xtverify.NewVerifierFromDEF(bytes.NewReader(def), cfg); err == nil {
			rep, err = v.Run()
		}
	case kindStream:
		cfg.StreamIngest = false
		rep, err = verify(bytes.NewReader(def), cfg)
	case kindECO:
		cfg.StreamIngest = true
		rep, err = verify(bytes.NewReader(def), cfg)
	}
	if err != nil {
		return reference{}, fmt.Errorf("reference run: %w", err)
	}
	text, err := render(rep)
	if err != nil {
		return reference{}, err
	}
	rep.Diagnostics = nil
	return reference{text: text, rep: rep}, nil
}

// check compares an op's report with its reference: the rendered text, and
// the violation, pruning and screening values bit for bit, since the
// program promises identical reports across its execution paths.
func check(rep *xtverify.Report, ref reference) error {
	got, err := render(rep)
	if err != nil {
		return err
	}
	if got != ref.text {
		return fmt.Errorf("report differs from the reference (%s)", firstDiff(got, ref.text))
	}
	if !sameViolations(rep.Violations, ref.rep) || rep.Prune != ref.rep.Prune ||
		!reflect.DeepEqual(rep.Screening, ref.rep.Screening) {
		return fmt.Errorf("report values differ from the reference below the rendered precision")
	}
	return nil
}

// firstDiff describes the first differing line of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "identical"
}

// sameViolations reports whether a replay found exactly the reference's
// violations.
func sameViolations(got []xtverify.Violation, ref *xtverify.Report) bool {
	if len(got) == 0 && len(ref.Violations) == 0 {
		return true
	}
	return reflect.DeepEqual(got, ref.Violations)
}
