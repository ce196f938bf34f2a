package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"xtverify"
)

// tracedInputs is how many op inputs a traced run uses at most.
const tracedInputs = 2

// tracedSteps is the fewest steps a traced run makes. The machine's speed
// drifts by ±10 % from one op to the next, and the replay is compared with
// the untraced ops beside it, so the comparison needs a few of each.
const tracedSteps = 4

// buildDir is the directory run.sh builds into; the benchmark keeps its
// input files and traces there.
const buildDir = ".bench_build"

// traceDir holds the spans of traced runs.
const traceDir = buildDir + "/xtbench-traces"

// coldSetup measures what a fresh process pays before steady state on the
// DEF in path: its first op (signoff, streaming) or the base run plus
// BaseRun (ECO), in VM seconds. It must be the first verifier work of the
// process. It also returns the SHA-256 of the report it rendered, so the
// caller can check the cold output.
func coldSetup(w *workload, path string) (setupSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return setupSample{}, err
	}
	defer f.Close()
	t, err := startTimer()
	if err != nil {
		return setupSample{}, err
	}
	var rep *xtverify.Report
	if w.kind == kindECO {
		var b *ecoBase
		if b, err = runBase(f, w.cfg); err == nil {
			rep = b.rep
		}
	} else {
		rep, err = verify(f, w.cfg)
	}
	var s setupSample
	s.WallSeconds, s.Seconds = t.stop()
	if err != nil {
		return s, err
	}
	text, err := render(rep)
	s.ReportSHA256 = textSHA256(text)
	return s, err
}

// setupSample is what a set-up child prints: its set-up time in VM and
// wall seconds, and its report's hash.
type setupSample struct {
	Seconds      float64 `json:"setup_s"`
	WallSeconds  float64 `json:"setup_wall_s"`
	ReportSHA256 string  `json:"report_sha256"`
}

func textSHA256(text string) string {
	h := sha256.Sum256([]byte(text))
	return hex.EncodeToString(h[:])
}

// childSetup runs coldSetup on the DEF in path in a fresh copy of this
// program.
func childSetup(w *workload, path string) (setupSample, error) {
	var s setupSample
	self, err := os.Executable()
	if err != nil {
		return s, err
	}
	cmd := exec.Command(self, "--setup-child", path, "--workload", w.name)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return s, fmt.Errorf("set-up child: %w", err)
	}
	if err := json.Unmarshal(out, &s); err != nil {
		return s, fmt.Errorf("set-up child output: %w", err)
	}
	if s.Seconds <= 0 || s.ReportSHA256 == "" {
		return s, fmt.Errorf("set-up child printed no sample: %s", out)
	}
	return s, nil
}

// opInputs is what the timed ops cycle through, with a reference each.
// Every input is a DEF file, so the process holds no copy of the inputs
// while the ops run and peak_rss_mb measures the program alone.
type opInputs struct {
	paths []string
	nets  []int
	refs  []reference
	base  *xtverify.BaseRun
	// setupPaths are the DEFs set-up samples cycle through: the base
	// design for the ECO workload, the op inputs otherwise. setupSHA256
	// holds the hash of the report a cold set-up must render from each.
	setupPaths  []string
	setupSHA256 []string
}

// prepare turns a run's designs into op inputs: for the ECO workload the
// seeded edits of the base design, otherwise the designs themselves. It
// writes each input's DEF to a file in dir and computes every reference
// before any op is timed. At most limit inputs are kept when limit > 0.
func prepare(w *workload, ins []input, base *ecoBase, seed int64, limit int, dir string) (*opInputs, error) {
	oi := &opInputs{}
	var defs [][]byte
	if w.kind == kindECO {
		edits, picked, err := ecoEdits(ins[0], base.rep, seed, w.edits)
		if err != nil {
			return nil, err
		}
		fmt.Printf("eco edits: %s\n", strings.Join(picked, ", "))
		defs = edits
		for range edits {
			oi.nets = append(oi.nets, ins[0].nets)
		}
		oi.base = base.base
	} else {
		for _, in := range ins {
			defs = append(defs, in.def)
			oi.nets = append(oi.nets, in.nets)
		}
	}
	if limit > 0 && len(defs) > limit {
		defs, oi.nets = defs[:limit], oi.nets[:limit]
	}
	for i, d := range defs {
		path := filepath.Join(dir, fmt.Sprintf("input%d.def", i))
		if err := os.WriteFile(path, d, 0o644); err != nil {
			return nil, err
		}
		oi.paths = append(oi.paths, path)
	}
	oi.setupPaths = oi.paths
	if w.kind == kindECO {
		path := filepath.Join(dir, "base.def")
		if err := os.WriteFile(path, ins[0].def, 0o644); err != nil {
			return nil, err
		}
		text, err := render(base.rep)
		if err != nil {
			return nil, err
		}
		oi.setupPaths, oi.setupSHA256 = []string{path}, []string{textSHA256(text)}
	}
	// Nothing is timed while references are computed, so two run at once.
	oi.refs = make([]reference, len(defs))
	errs := make([]error, len(defs))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, d := range defs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, d []byte) {
			defer wg.Done()
			oi.refs[i], errs[i] = w.referenceFor(d)
			<-sem
		}(i, d)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if w.kind != kindECO {
		for _, r := range oi.refs {
			oi.setupSHA256 = append(oi.setupSHA256, textSHA256(r.text))
		}
	}
	return oi, nil
}

// opRun is one timed op: its wall seconds, its VM seconds (see vmTimer)
// and the process's peak RSS during it.
type opRun struct {
	wall, vm float64
	peakMB   float64
}

// op runs input i with cfg and checks its report. Every op starts from a
// collected heap handed back to the OS, with the peak-RSS mark reset, so
// its peak is its own. Opening the input, collecting the heap and checking
// the report are not timed.
func (oi *opInputs) op(w *workload, i int, cfg xtverify.Config) (opRun, error) {
	var r opRun
	f, err := os.Open(oi.paths[i])
	if err != nil {
		return r, err
	}
	defer f.Close()
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return r, err
	}
	var rep *xtverify.Report
	t, err := startTimer()
	if err != nil {
		return r, err
	}
	if w.kind == kindECO {
		rep, _, err = reverify(f, cfg, oi.base)
	} else {
		rep, err = verify(f, cfg)
	}
	r.wall, r.vm = t.stop()
	if err != nil {
		return r, err
	}
	if r.peakMB, err = peakRSSMB(); err != nil {
		return r, err
	}
	return r, check(rep, oi.refs[i])
}

// vmTimer times an interval twice: in wall seconds, and in VM seconds,
// the wall seconds less the hypervisor's steal time over the interval
// shared out over the machine's CPUs. Steal time is time the host ran
// something else on this VM's CPUs; on a shared host it swings by tens of
// percent from one minute to the next, and no change to the program can
// move it.
type vmTimer struct {
	t0     time.Time
	steal0 float64
}

func startTimer() (vmTimer, error) {
	s, err := stealSeconds()
	return vmTimer{t0: time.Now(), steal0: s}, err
}

// stop returns the wall and VM seconds since start. /proc/stat was read
// at start, so a read failing here is all but impossible; it counts as no
// steal.
func (t vmTimer) stop() (wall, vm float64) {
	wall = time.Since(t.t0).Seconds()
	steal, err := stealSeconds()
	if err != nil {
		return wall, wall
	}
	return wall, wall - (steal-t.steal0)/float64(runtime.NumCPU())
}

// userHZ is the unit of the times in /proc/stat, ticks per second.
const userHZ = 100

// stealSeconds is the steal time of all CPUs since boot, from /proc/stat.
func stealSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("no steal time in /proc/stat: %q", line)
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("steal time in /proc/stat: %w", err)
	}
	return ticks / userHZ, nil
}

// setUp is an end-to-end run's set-up: the designs, the ECO base run and
// BaseRun, the op inputs and their references. The references also warm
// this process's caches (cell characterization) before the timed ops;
// cold set-up is measured in fresh processes. Only what the ops need
// outlives it.
func setUp(w *workload, seed int64, dir string) (*opInputs, error) {
	ins, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	var base *ecoBase
	if w.kind == kindECO {
		if base, err = runBase(bytes.NewReader(ins[0].def), w.cfg); err != nil {
			return nil, err
		}
	}
	return prepare(w, ins, base, seed, 0, dir)
}

// endToEnd is a --trace 0 run: set-up, references, then timed ops with
// tracing off. Between ops, spread evenly over the run's ops and seconds,
// fresh processes measure a cold set-up on the run's set-up files, so the
// set-up samples see the same machine as the ops do, the ops sample the
// machine over a longer stretch of time, and each sample's heap holds only
// the program's own data. Each sample's report is checked too.
//
// nets_per_s is the median over ops of the design's nets per VM second
// (see vmTimer), which neither the host's steal time nor a few slow ops
// move; the ops of a run cost about the same (designs of one workload
// differ little, ECO edits of one design not at all). peak_rss_mb is the
// median of the ops' own peaks. Wall-clock figures are printed beside
// them.
func endToEnd(w *workload, seed int64, seconds int) (*result, error) {
	dir, err := inputDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	oi, err := setUp(w, seed, dir)
	if err != nil {
		return nil, err
	}

	var t tally
	var walls, vms, rates, wallRates, peaks, setups, setupWalls []float64
	for i := 0; ; i++ {
		k := i % len(oi.paths)
		r, err := oi.op(w, k, w.cfg)
		walls, vms, peaks = append(walls, r.wall), append(vms, r.vm), append(peaks, r.peakMB)
		rates, wallRates = append(rates, float64(oi.nets[k])/r.vm), append(wallRates, float64(oi.nets[k])/r.wall)
		t.record(err)
		if n := len(setups); n < w.setups && len(walls)*w.setups >= n*w.minOps &&
			sum(walls)*float64(w.setups) >= float64(n*seconds) {
			j := n % len(oi.setupPaths)
			s, err := childSetup(w, oi.setupPaths[j])
			if err != nil {
				return nil, err
			}
			setups, setupWalls = append(setups, s.Seconds), append(setupWalls, s.WallSeconds)
			if s.ReportSHA256 != oi.setupSHA256[j] {
				t.record(fmt.Errorf("cold set-up report differs from the reference"))
			} else {
				t.record(nil)
			}
		}
		if len(walls) >= w.minOps && len(setups) == w.setups && sum(walls) >= float64(seconds) {
			break
		}
	}
	q1, _, q3, _ := quartiles(vms)
	fmt.Printf("workload %s seed %d: %d timed ops over %d input(s)\n", w.name, seed, len(vms), len(oi.paths))
	fmt.Printf("op_s.p50 %.4f VM s (n=%d, q1 %.4f, q3 %.4f, max %.4f); wall %.4f s\n",
		median(vms), len(vms), q1, q3, percentile(vms, 100), median(walls))
	m := map[string]metric{
		"nets_per_s":  {median(rates), "nets/s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {median(peaks), "MB"},
	}
	fmt.Printf("op VM s %.4f\nop wall s %.4f\nop peak MB %.1f\n", vms, walls, peaks)
	fmt.Printf("setup VM s %.4f\nsetup wall s %.4f\n", setups, setupWalls)
	fmt.Printf("nets per wall s %.4f\n", median(wallRates))
	for _, k := range []string{"nets_per_s", "setup_s", "peak_rss_mb"} {
		fmt.Printf("%s %.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return t.result(m), nil
}

// inputDir makes a fresh directory for one run's input files.
func inputDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "xtbench-inputs-")
}

// resetPeakRSS restarts the kernel's VmHWM accounting for this process.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset the peak-RSS mark: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the process's resident-memory high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// traced is a --trace 1 run. After a cold characterization span it times
// untraced ops at the configured worker count and with one worker, then
// replays ops serially through each layer's functions with a span around
// every call, and derives each layer's self time from the spans.
func traced(w *workload, seed int64, seconds int) (*result, error) {
	ins, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	// A traced run replays the first two inputs: enough to compare the
	// replay with untraced ops, and it keeps the run short.
	if len(ins) > tracedInputs {
		ins = ins[:tracedInputs]
	}
	rec := newRecorder(false)
	rp := newReplayer(w, rec)
	rec.op = -1
	if err := rp.characterize(ins); err != nil {
		return nil, fmt.Errorf("characterize cells: %w", err)
	}
	var base *ecoBase
	if w.kind == kindECO {
		if base, err = runBase(bytes.NewReader(ins[0].def), w.cfg); err != nil {
			return nil, err
		}
	}
	dir, err := inputDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	oi, err := prepare(w, ins, base, seed, tracedInputs, dir)
	if err != nil {
		return nil, err
	}
	n := len(oi.paths)
	var t tally

	// Each step times one untraced op at the configured worker count, then
	// replays the input traced between two untraced single-worker ops.
	// Keeping them close in time, and bracketing the replay, keeps the
	// machine's speed drifts out of their ratios.
	serial := w.cfg
	serial.Workers = 1
	var parDurs, serialDurs []float64
	timeOp := func(k int, cfg xtverify.Config, durs *[]float64) {
		r, err := oi.op(w, k, cfg)
		t.record(err)
		*durs = append(*durs, r.wall)
	}
	var counts []*replayCounts
	start := time.Now()
	for i := 0; ; i++ {
		k := i % n
		timeOp(k, w.cfg, &parDurs)
		timeOp(k, serial, &serialDurs)

		rec.op = i
		rc, err := rp.replay(oi, k)
		if err != nil {
			return nil, err
		}
		t.record(nil)
		counts = append(counts, rc)
		timeOp(k, serial, &serialDurs)
		if i+1 >= tracedSteps && time.Since(start) >= time.Duration(seconds)*time.Second {
			break
		}
	}
	// Reading the allocation counter costs about 500 ns, which would swell
	// the fine-grained streaming spans, so allocations come from one more
	// replay of the first input with the counter read at every span edge.
	allocRec := newRecorder(true)
	if _, err := newReplayer(w, allocRec).replay(oi, 0); err != nil {
		return nil, err
	}
	t.record(nil)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, seed))
	if err := writeSpans(path, rec.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	m := layerMetrics(rec.spans, allocRec.spans, counts, serialDurs, parDurs, w.cfg.Workers)
	fmt.Printf("workload %s seed %d: %d replayed ops, %d spans in %s\n", w.name, seed, len(counts), len(rec.spans), path)
	return t.result(m), nil
}

// replay replays input k and checks that it reproduced the reference: per-
// layer figures of a replay that does not reproduce the program would
// describe something else.
func (r *replayer) replay(oi *opInputs, k int) (*replayCounts, error) {
	var rc *replayCounts
	var err error
	switch r.w.kind {
	case kindSignoff:
		rc, err = r.materialized(oi.paths[k])
	case kindStream:
		rc, err = r.streamed(oi.paths[k])
	case kindECO:
		var rep *xtverify.Report
		rc, rep, err = r.eco(oi.paths[k], oi.base)
		if err == nil {
			err = check(rep, oi.refs[k])
		}
	}
	if err == nil && r.w.kind != kindECO {
		err = checkReplay(rc, oi.refs[k].rep)
	}
	if err != nil {
		return nil, fmt.Errorf("traced replay of input %d: %w", k, err)
	}
	return rc, nil
}

// checkReplay confirms a replayed signoff or streaming op reproduced the
// reference report's clusters, screening and violations.
func checkReplay(rc *replayCounts, ref *xtverify.Report) error {
	if rc.clusters != ref.Prune.ClustersAnalyzed {
		return fmt.Errorf("replay found %d clusters, reference %d", rc.clusters, ref.Prune.ClustersAnalyzed)
	}
	if ref.Screening == nil || rc.screened != ref.Screening.Screened {
		return fmt.Errorf("replay screened %d clusters, reference %v", rc.screened, ref.Screening)
	}
	if !sameViolations(rc.violations, ref) {
		return fmt.Errorf("replay violations differ from the reference (%d vs %d)", len(rc.violations), len(ref.Violations))
	}
	return nil
}
