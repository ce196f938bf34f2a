// stream_ingest.go is the streamed front end of the verifier
// (Config.StreamIngest). The engine (runEngine, engine.go) has two front
// ends feeding one worker pool and one report assembly: the materialized
// one prunes a whole-chip extraction once, this one never builds the chip.
// Nets flow from a StreamSource through the incremental extraction kernel
// (internal/extract Streamer) into the streaming clusterer (internal/prune
// StreamClusterer), and every coupled cluster is emitted into the worker
// pool the moment its component closes — while ingest is still running.
// Peak memory is O(largest component + frontier) instead of O(chip).
//
// The report is byte-identical to a materialized run's. Three facts carry
// the proof, each pinned by its own layer:
//
//   - the extraction kernel is shared (Extract *is* the Streamer with an
//     unbounded frontier), and per-coupling float accumulation order is a
//     pure function of net arrival order, identical in both modes;
//   - a closed component contains every coupling that can influence its
//     victims, renumbered by a monotone map, so pruning and circuit
//     assembly visit bit-identical values in identical order (see
//     internal/prune stream.go);
//   - the engine sorts eagerly-emitted clusters back into global victim
//     order — the order the materialized front end emits in — before any
//     report field or merged counter is produced.
package xtverify

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"io"

	"xtverify/internal/deflite"
	"xtverify/internal/design"
	"xtverify/internal/dsp"
	"xtverify/internal/extract"
	"xtverify/internal/obs"
	"xtverify/internal/prune"
)

// StreamSink receives a streamed design, net by net. AddNet must be called
// in (approximately) ascending-y order — see Config.StreamFrontierSlackUM —
// and may return an error to abort the stream (cancellation, a frontier
// violation); sources must propagate it unwrapped.
type StreamSink interface {
	// StartDesign names the design; it must be called before any net.
	StartDesign(name string) error
	// AddNet hands over one net, complete with pins and routed segments.
	// The sink assigns the net's global Index; the net must not be reused
	// or mutated by the source afterwards.
	AddNet(n *design.Net) error
	// MarkComplementary records nets a and b (global indices of nets
	// already added) as a complementary Q/QN pair.
	MarkComplementary(a, b int)
}

// StreamSource produces a design as a stream of nets. Stream is called once
// per verification run and must deliver the same design each time; it
// returns the first sink error unwrapped, or its own (typed) parse error.
type StreamSource interface {
	Stream(ctx context.Context, sink StreamSink) error
}

// requireMaterialized guards APIs that read the whole in-memory design or
// parasitics, which a streaming verifier never builds.
func (v *Verifier) requireMaterialized(op string) error {
	if v.src != nil {
		return fmt.Errorf("%w: %s needs the materialized design", ErrStreamIngest, op)
	}
	return nil
}

// NewStreamVerifier prepares a verifier that ingests from src on every run
// (Config.StreamIngest is implied). Most callers want NewVerifierFromDSP or
// NewVerifierFromDEF with Config.StreamIngest set; this entry exists for
// custom sources (generators, format adapters).
func NewStreamVerifier(src StreamSource, cfg Config) (*Verifier, error) {
	cfg.setDefaults()
	return newStreamVerifier(src, cfg)
}

func newStreamVerifier(src StreamSource, cfg Config) (*Verifier, error) {
	if cfg.UseTimingWindows {
		return nil, fmt.Errorf("%w: timing windows need whole-design STA annotation", ErrStreamIngest)
	}
	return &Verifier{cfg: cfg, src: src}, nil
}

// dspStreamSource streams the synthetic DSP generator without materializing
// the design.
type dspStreamSource struct{ cfg dsp.Config }

func (s dspStreamSource) Stream(ctx context.Context, sink StreamSink) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := sink.StartDesign(dsp.DesignName); err != nil {
		return err
	}
	// Cancellation propagates through the sink: every AddNet checks the run
	// context and its error aborts the generator.
	return dsp.Stream(s.cfg, sink)
}

// defStreamSource streams a DEF-subset reader. The reader is consumed by
// Stream, so a verifier built on it supports one run per rewind.
type defStreamSource struct{ r io.Reader }

func (s defStreamSource) Stream(ctx context.Context, sink StreamSink) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return deflite.StreamRead(s.r, sink)
}

// streamIngestor is the StreamSink behind the streamed front end: extract →
// cluster → emit, plus the raw-population statistics the materialized front
// end gets from prune.RawClusters.
type streamIngestor struct {
	em  *emitter
	str *extract.Streamer
	sc  *prune.StreamClusterer
	in  ingest
	// names holds a 64-bit hash of every net name delivered so far, so a
	// duplicate name fails the run even when its first occurrence retired
	// long ago (the clusterer only sees names within an open component). A
	// hash collision fails closed: a spurious duplicate-name error, never a
	// silently merged net. hash is the FNV-1a hasher behind it.
	names map[uint64]struct{}
	hash  hash.Hash64
}

func (s *streamIngestor) StartDesign(name string) error {
	s.in.name = name
	s.sc.SetDesignName(name)
	return nil
}

func (s *streamIngestor) AddNet(n *design.Net) error {
	if err := s.em.ctx.Err(); err != nil {
		return err
	}
	s.hash.Reset()
	s.hash.Write([]byte(n.Name))
	h := s.hash.Sum64()
	if _, dup := s.names[h]; dup {
		return deflite.DuplicateNetError(n.Name)
	}
	s.names[h] = struct{}{}
	n.Index = s.in.netCount
	s.in.netCount++
	rc, final, retired, err := s.str.AddNet(n)
	if err != nil {
		return err
	}
	s.sc.AddNet(n, rc, final)
	closed, err := s.sc.Retire(retired)
	if err != nil {
		return err
	}
	return s.emit(closed)
}

func (s *streamIngestor) MarkComplementary(a, b int) {
	s.sc.MarkComplementary(a, b)
}

// emit records each closed component's raw statistics and hands its pruned
// clusters to the engine.
func (s *streamIngestor) emit(closed []*prune.ClosedComponent) error {
	for _, c := range closed {
		s.in.addRaw(len(c.Members))
		for _, scl := range c.Clusters {
			u := &engineUnit{
				victim: scl.GlobalVictim,
				size:   scl.Cluster.Size(),
				unit:   clusterUnit{cl: scl.Cluster, par: scl.Par, des: scl.Par.Design},
			}
			if err := s.em.emit(u); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish drains the frontier after the source is exhausted: everything
// still live retires, every remaining component closes and is emitted.
func (s *streamIngestor) finish() error {
	closed, err := s.sc.Retire(s.str.Finish())
	if err == nil {
		err = s.emit(closed)
	}
	if err != nil {
		return err
	}
	rem, err := s.sc.Finish()
	if err == nil {
		err = s.emit(rem)
	}
	return err
}

// feedStream is the streamed front end: it runs the source through the
// ingestor on the calling goroutine, so ingest overlaps the worker pool.
// The whole parse+extract+cluster stage is timed as the prune phase.
func (v *Verifier) feedStream(em *emitter) (ingest, error) {
	slack := v.cfg.StreamFrontierSlackUM
	if slack <= 0 {
		slack = extract.DefaultFrontierSlackUM
	}
	s := &streamIngestor{
		em:    em,
		str:   extract.NewStreamer(extract.Tech025(), slack),
		sc:    prune.NewStreamClusterer("", extract.Tech025(), v.pruneOptions()),
		names: make(map[uint64]struct{}),
		hash:  fnv.New64a(),
	}
	span := v.cfg.Collector.Start(obs.PhasePrune)
	err := v.src.Stream(em.ctx, s)
	if err == nil {
		err = s.finish()
	}
	span.End()
	s.in.frontierPeak = s.str.PeakLiveNets()
	return s.in, err
}
