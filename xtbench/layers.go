package main

import "fmt"

// opLayers are the span names whose self time makes up a replayed op, in
// pipeline order. Each is named after the module whose functions it times.
var opLayers = []string{"deflite", "extract", "prune", "analytic", "glitch", "cells", "xtverify.reverify"}

// layerMetrics turns a traced run's spans and counts into the per-layer
// metrics. Times are means per replayed op, except cells.s, which is the
// process's whole characterization time (cold span plus the lookups inside
// ops). Allocations come from allocSpans, one replayed op. A layer the
// workload's op does not call on its own reads 0 (see README.md).
func layerMetrics(spans, allocSpans []span, counts []*replayCounts, serialDurs, parDurs []float64, workers int) map[string]metric {
	tot := selfTotals(spans)
	allocTot := selfTotals(allocSpans)
	nOps := float64(len(counts))
	perOp := func(layer string) float64 { return float64(tot[layer].SelfNs) / 1e9 / nOps }
	allocMB := func(layer string) float64 { return float64(allocTot[layer].SelfAlloc) / (1 << 20) }
	mean := func(f func(*replayCounts) float64) float64 {
		s := 0.0
		for _, c := range counts {
			s += f(c)
		}
		return s / nOps
	}
	layerSum := 0.0
	for _, l := range opLayers {
		layerSum += perOp(l)
	}
	var opWall float64
	for _, s := range spans {
		if s.Name == layerOp {
			opWall += float64(s.End-s.Start) / 1e9
		}
	}
	opWall /= nOps
	serialWall := sum(serialDurs) / float64(len(serialDurs))
	parP50 := median(parDurs)
	frac := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	var hits, lookups, screened, evals int64
	for _, c := range counts {
		hits += c.romHits
		lookups += c.romHits + c.romMisses
		screened += int64(c.screened)
		evals += int64(c.boundEvals)
	}
	m := map[string]metric{
		"deflite.s":                    {perOp("deflite"), "s"},
		"deflite.alloc_mb":             {allocMB("deflite"), "MB"},
		"extract.s":                    {perOp("extract"), "s"},
		"extract.alloc_mb":             {allocMB("extract"), "MB"},
		"extract.couplings":            {mean(func(c *replayCounts) float64 { return float64(c.couplings) }), "count"},
		"extract.peak_live_nets":       {mean(func(c *replayCounts) float64 { return float64(c.peakLive) }), "count"},
		"prune.s":                      {perOp("prune"), "s"},
		"prune.alloc_mb":               {allocMB("prune"), "MB"},
		"prune.clusters":               {mean(func(c *replayCounts) float64 { return float64(c.clusters) }), "count"},
		"analytic.s":                   {perOp("analytic"), "s"},
		"analytic.bound_evals":         {mean(func(c *replayCounts) float64 { return float64(c.boundEvals) }), "count"},
		"analytic.screened_frac":       {frac(screened, evals), "frac"},
		"glitch.s":                     {perOp("glitch"), "s"},
		"glitch.alloc_mb":              {allocMB("glitch"), "MB"},
		"glitch.clusters":              {mean(func(c *replayCounts) float64 { return float64(c.glitched) }), "count"},
		"glitch.rom_cache_hit_frac":    {frac(hits, lookups), "frac"},
		"sympvl.lanczos_iterations":    {mean(func(c *replayCounts) float64 { return float64(c.lanczos) }), "count"},
		"romsim.newton_iterations":     {mean(func(c *replayCounts) float64 { return float64(c.newton) }), "count"},
		"romsim.woodbury_solves":       {mean(func(c *replayCounts) float64 { return float64(c.woodbury) }), "count"},
		"cells.s":                      {float64(tot[layerColdCells].SelfNs+tot["cells"].SelfNs) / 1e9, "s"},
		"xtverify.reverify_s":          {perOp("xtverify.reverify"), "s"},
		"xtverify.clusters_recomputed": {mean(func(c *replayCounts) float64 { return float64(c.recomputed) }), "count"},
		"xtverify.self_s":              {serialWall - layerSum, "s"},
		"xtverify.parallel_eff":        {serialWall / (float64(workers) * parP50), "frac"},
		"trace.overhead_frac":          {opWall/serialWall - 1, "frac"},
	}
	fmt.Printf("untraced op: %.4f s at %d workers (p50 of %d), %.4f s at 1 worker (mean of %d)\n",
		parP50, workers, len(parDurs), serialWall, len(serialDurs))
	fmt.Printf("replayed layers: %.4f s per op = %.1f%% of the 1-worker op; traced op wall %.4f s\n",
		layerSum, 100*layerSum/serialWall, opWall)
	fmt.Printf("%-20s %12s %8s %12s\n", "layer", "self s/op", "share", "alloc MB/op")
	for _, l := range opLayers {
		fmt.Printf("%-20s %12.6f %7.2f%% %12.2f\n", l, perOp(l), 100*perOp(l)/serialWall, allocMB(l))
	}
	fmt.Printf("%-20s %12.6f %7.2f%%\n", "xtverify (rest)", serialWall-layerSum, 100*(serialWall-layerSum)/serialWall)
	return m
}
