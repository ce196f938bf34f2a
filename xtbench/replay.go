package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"

	"xtverify"
	"xtverify/internal/analytic"
	"xtverify/internal/cellmodel"
	"xtverify/internal/cells"
	"xtverify/internal/deflite"
	"xtverify/internal/design"
	"xtverify/internal/extract"
	"xtverify/internal/glitch"
	"xtverify/internal/obs"
	"xtverify/internal/prune"
)

// The engine's defaults (xtverify.Config.setDefaults and pruneOptions),
// restated because the replay calls the layers directly. A drift shows as
// a replay that no longer reproduces the reference report.
const (
	fixedOhms      = 1000
	glitchFracVdd  = 0.10
	capRatio       = 0.02
	minCouplingF   = 0.5e-15
	maxAggressors  = 12
	screenSafety   = xtverify.DefaultScreenSafetyFactor
	screenedStage  = "screened"
	analyzedStage  = "reduced"
	layerOp        = "op"
	layerColdCells = "cells.cold"
)

// replayCounts are the per-op counts one replayed op produces.
type replayCounts struct {
	couplings, peakLive, clusters  int
	boundEvals, screened, glitched int
	romHits, romMisses             int64
	lanczos, newton, woodbury      int64
	recomputed                     int
	violations                     []xtverify.Violation
}

// replayer re-runs ops serially through each layer's own functions and
// records a span around every call.
type replayer struct {
	w   *workload
	rec *recorder

	bopt analytic.BoundOptions
	gopt glitch.Options
	popt prune.Options
}

func newReplayer(w *workload, rec *recorder) *replayer {
	r := &replayer{w: w, rec: rec}
	r.popt = prune.Options{CapRatioThreshold: capRatio, MinCouplingF: minCouplingF, MaxAggressors: maxAggressors}
	r.bopt = analytic.BoundOptions{FixedOhms: fixedOhms, Vdd: xtverify.Vdd}
	r.gopt = glitch.Options{FixedOhms: fixedOhms}
	if w.cfg.Model == xtverify.FixedResistance {
		r.bopt.Model, r.gopt.Model = analytic.DriverFixedR, glitch.ModelFixedR
	} else {
		r.bopt.Model, r.gopt.Model = analytic.DriverNonlinear, glitch.ModelNonlinear
	}
	return r
}

// do runs f inside a span named after its layer.
func (r *replayer) do(layer string, f func() error) error {
	id := r.rec.begin(layer)
	err := f()
	r.rec.end(id)
	return err
}

// characterize is the cold cell characterization a fresh process pays: for
// every cell the designs instantiate, the tables the workload's driver
// model reads, plus the receivers' transfer curves. It runs once, before
// any op.
func (r *replayer) characterize(ins []input) error {
	drivers := map[string]*cells.Cell{}
	receivers := map[string]*cells.Cell{}
	for _, in := range ins {
		for _, n := range in.des.Nets {
			for _, p := range n.Drivers {
				drivers[p.Cell.Name] = p.Cell
			}
			for _, p := range n.Receivers {
				receivers[p.Cell.Name] = p.Cell
			}
		}
	}
	return r.do(layerColdCells, func() error {
		for _, c := range byName(drivers) {
			if err := characterizeDriver(c, r.w.cfg.Model); err != nil {
				return err
			}
		}
		for _, c := range byName(receivers) {
			if _, err := cells.CharacterizeVTC(c); err != nil {
				return err
			}
		}
		return nil
	})
}

func characterizeDriver(c *cells.Cell, model xtverify.DriverModel) error {
	if model == xtverify.FixedResistance {
		return nil
	}
	if _, err := cells.CharacterizeCached(c); err != nil {
		return err
	}
	for _, st := range []cellmodel.Stage{cellmodel.StagePullDown, cellmodel.StagePullUp} {
		if _, err := cellmodel.CharacterizeIV(c, st, 0); err != nil {
			return err
		}
	}
	_, err := cellmodel.CharacterizeIVSurface(c, 0, 0)
	return err
}

func byName(m map[string]*cells.Cell) []*cells.Cell {
	out := make([]*cells.Cell, 0, len(m))
	for _, c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// analyze replays the engine's per-cluster work: the rung-0 bound, then,
// unless it screens, both glitch polarities and the violation's receiver
// checks.
func (r *replayer) analyze(col *obs.Collector, cache *glitch.ROMCache, par *extract.Parasitics,
	cl *prune.Cluster, rc *replayCounts) error {
	d := par.Design
	victim := d.Nets[cl.Victim].Name
	tr := col.NewTrace()
	rc.boundEvals++
	var bound float64
	berr := r.do("analytic", func() error {
		var err error
		bound, err = analytic.BoundCluster(par, cl, r.bopt)
		return err
	})
	if berr == nil && bound*(1+screenSafety) < glitchFracVdd*xtverify.Vdd {
		rc.screened++
		col.MergeTrace(victim, screenedStage, tr)
		return nil
	}
	rc.glitched++
	var rise, fall *glitch.Result
	err := r.do("glitch", func() error {
		opts := r.gopt
		opts.Cache = cache
		opts.Trace = tr
		var err error
		rise, fall, err = glitch.NewEngine(par, opts).AnalyzeGlitchPairContext(context.Background(), cl)
		return err
	})
	col.MergeTrace(victim, analyzedStage, tr)
	if err != nil {
		return fmt.Errorf("victim %s: %w", victim, err)
	}
	worst := xtverify.Violation{Victim: victim}
	for _, res := range []*glitch.Result{rise, fall} {
		frac := res.PeakV / xtverify.Vdd
		if frac < 0 {
			frac = -frac
		}
		if frac > worst.FracVdd {
			worst.FracVdd, worst.PeakV, worst.Aggressors = frac, res.PeakV, res.ActiveAggressors
		}
	}
	if worst.FracVdd < glitchFracVdd {
		return nil
	}
	net := d.Nets[cl.Victim]
	for _, p := range net.Receivers {
		if p.Cell.Sequential {
			worst.LatchInput = true
			break
		}
	}
	err = r.do("cells", func() error {
		for _, p := range net.Receivers {
			vtc, err := cells.CharacterizeVTC(p.Cell)
			if err != nil {
				return err
			}
			if vtc.GlitchPropagates(worst.PeakV, worst.PeakV > 0) {
				worst.Propagates = true
				break
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rc.violations = append(rc.violations, worst)
	return nil
}

// finishCounts reads the counters the engine layers reported and sorts the
// violations the way the engine's report does.
func finishCounts(rc *replayCounts, col *obs.Collector, cache *glitch.ROMCache) {
	ctr := col.Snapshot().Counters
	rc.lanczos = ctr[obs.CtrLanczosIterations.String()]
	rc.newton = ctr[obs.CtrNewtonIterations.String()]
	rc.woodbury = ctr[obs.CtrWoodburySolves.String()]
	h, m := cache.Stats()
	rc.romHits, rc.romMisses = int64(h), int64(m)
	sortViolations(rc.violations)
}

func sortViolations(vs []xtverify.Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].FracVdd != vs[j].FracVdd {
			return vs[i].FracVdd > vs[j].FracVdd
		}
		return vs[i].Victim < vs[j].Victim
	})
}

// materialized replays one signoff op: parse, extract, cluster, then every
// cluster in victim order.
func (r *replayer) materialized(path string) (*replayCounts, error) {
	def, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer def.Close()
	rc := &replayCounts{}
	col := obs.NewCollector()
	cache := glitch.NewROMCache(0)
	err = r.do(layerOp, func() error {
		var d *design.Design
		if err := r.do("deflite", func() (err error) {
			d, err = deflite.Read(def)
			return err
		}); err != nil {
			return err
		}
		var par *extract.Parasitics
		if err := r.do("extract", func() (err error) {
			par, err = extract.Extract(d, extract.Tech025())
			return err
		}); err != nil {
			return err
		}
		rc.couplings, rc.peakLive = len(par.Couplings), len(par.Nets)
		var clusters []*prune.Cluster
		r.do("prune", func() error {
			prune.ComputeStats(par, r.popt)
			clusters = prune.Clusters(par, r.popt)
			return nil
		})
		rc.clusters = len(clusters)
		for _, cl := range clusters {
			if err := r.analyze(col, cache, par, cl, rc); err != nil {
				return err
			}
		}
		return nil
	})
	finishCounts(rc, col, cache)
	return rc, err
}

// replaySink is the streaming replay's DEF sink: extract and cluster each
// net as it is parsed, and analyze every cluster the moment its component
// closes.
type replaySink struct {
	r     *replayer
	col   *obs.Collector
	cache *glitch.ROMCache
	rc    *replayCounts
	str   *extract.Streamer
	sc    *prune.StreamClusterer
	n     int
}

func (s *replaySink) StartDesign(name string) error {
	s.sc.SetDesignName(name)
	return nil
}

func (s *replaySink) AddNet(n *design.Net) error {
	n.Index = s.n
	s.n++
	var rcx *extract.NetRC
	var final []extract.Coupling
	var retired []int
	if err := s.r.do("extract", func() (err error) {
		rcx, final, retired, err = s.str.AddNet(n)
		return err
	}); err != nil {
		return err
	}
	s.rc.couplings += len(final)
	var closed []*prune.ClosedComponent
	if err := s.r.do("prune", func() (err error) {
		s.sc.AddNet(n, rcx, final)
		closed, err = s.sc.Retire(retired)
		return err
	}); err != nil {
		return err
	}
	return s.emit(closed)
}

func (s *replaySink) emit(closed []*prune.ClosedComponent) error {
	for _, c := range closed {
		for _, scl := range c.Clusters {
			s.rc.clusters++
			if err := s.r.analyze(s.col, s.cache, scl.Par, scl.Cluster, s.rc); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish drains the frontier once the DEF is exhausted.
func (s *replaySink) finish() error {
	var closed []*prune.ClosedComponent
	if err := s.r.do("prune", func() (err error) {
		var retired []int
		s.r.do("extract", func() error { retired = s.str.Finish(); return nil })
		closed, err = s.sc.Retire(retired)
		return err
	}); err != nil {
		return err
	}
	if err := s.emit(closed); err != nil {
		return err
	}
	if err := s.r.do("prune", func() (err error) {
		closed, err = s.sc.Finish()
		return err
	}); err != nil {
		return err
	}
	return s.emit(closed)
}

// streamed replays one streaming op.
func (r *replayer) streamed(path string) (*replayCounts, error) {
	def, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer def.Close()
	rc := &replayCounts{}
	s := &replaySink{r: r, col: obs.NewCollector(), cache: glitch.NewROMCache(0), rc: rc,
		str: extract.NewStreamer(extract.Tech025(), extract.DefaultFrontierSlackUM),
		sc:  prune.NewStreamClusterer("", extract.Tech025(), r.popt)}
	err = r.do(layerOp, func() error {
		if err := r.do("deflite", func() error { return deflite.StreamRead(def, s) }); err != nil {
			return err
		}
		return s.finish()
	})
	rc.peakLive = s.str.PeakLiveNets()
	finishCounts(rc, s.col, s.cache)
	return rc, err
}

// eco replays one ECO op. Reverify is one public call, so clustering,
// screening and the recomputed clusters' analysis are inside its span; the
// verifier it needs is built outside the op, and its parse and extraction
// are replayed on their own.
func (r *replayer) eco(path string, base *xtverify.BaseRun) (*replayCounts, *xtverify.Report, error) {
	cfg := r.w.cfg
	cfg.Workers = 1
	cfg.Collector = xtverify.NewMetricsCollector()
	def, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer def.Close()
	v, err := xtverify.NewVerifierFromDEF(def, cfg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := def.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	rc := &replayCounts{}
	var rep *xtverify.Report
	err = r.do(layerOp, func() error {
		var d *design.Design
		if err := r.do("deflite", func() (err error) {
			d, err = deflite.Read(def)
			return err
		}); err != nil {
			return err
		}
		var par *extract.Parasitics
		if err := r.do("extract", func() (err error) {
			par, err = extract.Extract(d, extract.Tech025())
			return err
		}); err != nil {
			return err
		}
		rc.couplings, rc.peakLive = len(par.Couplings), len(par.Nets)
		return r.do("xtverify.reverify", func() error {
			var st *xtverify.ReverifyStats
			var err error
			rep, st, err = v.Reverify(base)
			if err == nil {
				rc.recomputed = st.ClustersRecomputed
			}
			return err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	ctr := rep.Diagnostics.Metrics.Counters
	rc.clusters = rep.Prune.ClustersAnalyzed
	rc.boundEvals = int(ctr[obs.CtrScreenBoundEvals.String()])
	rc.screened = int(ctr[obs.CtrScreenedRung0.String()])
	rc.glitched = int(ctr[obs.CtrFallbackReduced.String()] + ctr[obs.CtrFallbackRegularized.String()] +
		ctr[obs.CtrFallbackDirectMNA.String()])
	rc.romHits, rc.romMisses = ctr[obs.CtrROMCacheHits.String()], ctr[obs.CtrROMCacheMisses.String()]
	rc.lanczos = ctr[obs.CtrLanczosIterations.String()]
	rc.newton = ctr[obs.CtrNewtonIterations.String()]
	rc.woodbury = ctr[obs.CtrWoodburySolves.String()]
	return rc, rep, nil
}
