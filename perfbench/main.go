// Command perfbench is the repository's benchmark: three paper workloads
// run through the public internal/apps entry points, every result checked,
// end-to-end metrics with tracing off (--trace 0) and per-layer metrics
// from the benchmark's own spans (--trace 1).  See NOTES.md.
//
//	perfbench --workload adi-dynamic --seed 1 --seconds 30 --trace 0
//
// It runs from the root of a checkout, writes only under .bench_build/,
// and prints one JSON object as its last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workDir holds the benchmark's scratch files and run records.
const workDir = ".bench_build/perfbench"

// deadline bounds one invocation; a run that would pass it is a failure.
const deadline = 170 * time.Second

// setupRuns is the fewest zero-iteration runs the set-up median takes.
const setupRuns = 15

// minRuns is the fewest timed runs a measurement takes, however long.
const minRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one invocation measured.  Table rows are printed
// in order.
type report struct {
	rows     []string
	all      map[string]metric // every metric measured
	samples  map[string][]float64
	failures []string
	// incorrect counts the failures whose output was wrong, as opposed to
	// operations that returned an error.
	incorrect int
	notes     []string
}

func newReport() *report {
	return &report{all: map[string]metric{}, samples: map[string][]float64{}}
}

// add records a metric.
func (r *report) add(name string, v float64, unit string, extra string) {
	r.all[name] = metric{v, unit}
	r.rows = append(r.rows, fmt.Sprintf("  %-26s %16.6g %-8s %s", name, v, unit, extra))
}

func main() {
	wname := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wname {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", names())
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: deadline of %v passed; a run hung\n", w.name, deadline)
		os.Exit(1)
	})
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fatal(err)
	}
	sc := &scratch{dir: dir}
	env := environment(*seed, dir)
	rep := newReport()
	dur := time.Duration(*seconds) * time.Second
	var attempted int
	if *trace == 0 {
		attempted, err = endToEnd(w, sc, dur, rep)
	} else {
		attempted, err = perLayer(w, sc, dur, *seed, rep)
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("  env %s\n", env.line())
	for _, row := range rep.rows {
		fmt.Println(row)
	}
	for _, n := range rep.notes {
		fmt.Println("  note:", n)
	}
	for _, f := range rep.failures {
		fmt.Println("  FAILED:", f)
	}
	writeRecord(w.name, *seed, *trace, env, rep)
	result, err := resultMetrics(*trace, rep.all)
	if err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.incorrect == 0, attempted, len(rep.failures), result})
	fmt.Println(string(line))
}

// resultMetrics picks the metrics BENCHMARK.json declares for the trace
// mode — end_to_end for 0, per_layer for 1 — out of those measured, and
// fails if one is missing or measured in another unit.
func resultMetrics(trace int, all map[string]metric) (map[string]metric, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type decl struct{ Name, Unit string }
	var bj struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	ds := bj.EndToEnd
	if trace == 1 {
		ds = bj.PerLayer
	}
	out := map[string]metric{}
	for _, d := range ds {
		m, ok := all[d.Name]
		if !ok || m.Unit != d.Unit {
			return nil, fmt.Errorf("BENCHMARK.json declares %s in %s, which this run did not measure", d.Name, d.Unit)
		}
		out[d.Name] = m
	}
	return out, nil
}

func names() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, "|")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// sample is one timed run.
type sample struct {
	seconds, cpuSeconds, allocMB float64
	// steal is the share of the machine's CPU time the hypervisor gave to
	// other machines while the run ran.
	steal float64
}

// hostTicks reads the machine's cumulative CPU ticks from the first line
// of /proc/stat: the ticks the hypervisor stole from this machine's CPUs,
// and all ticks.
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// timed runs fn after a GC, so every run starts from the same heap, and
// measures its wall and CPU time, the Go heap bytes it allocated, and the
// host's steal meanwhile.
func timed(fn func() error) (sample, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s0, h0 := hostTicks()
	t0, c0 := time.Now(), cpuTime()
	err := fn()
	el, cpu := time.Since(t0), cpuTime()-c0
	s1, h1 := hostTicks()
	runtime.ReadMemStats(&after)
	m := sample{seconds: el.Seconds(), cpuSeconds: cpu, allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6}
	if h1 > h0 {
		m.steal = (s1 - s0) / (h1 - h0)
	}
	return m, err
}

// unstolen is the sample's wall time less the share of it the hypervisor
// stole.  Steal is time this machine's CPUs spent running other machines
// on a shared host; it measures the neighbours, not the program, and can
// double a run's wall time while its CPU time stays the same.
func (s sample) unstolen() float64 { return s.seconds * (1 - s.steal) }

func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// fail records a failed operation; wrong also marks its output incorrect.
func (r *report) fail(what string, err error) {
	r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
}

func (r *report) wrong(what string, err error) {
	r.incorrect++
	r.fail(what, err)
}

// countRuns is how often the untraced driver run is tried: it runs with
// the workload's liveness detector, which can declare a live rank dead
// under host load (see NOTES.md); each failed try is counted.
const countRuns = 3

// countRun runs the untraced driver until it completes and checks it
// reproduces the apps reference.
func countRun(w *workload, sc *scratch, o driverOpts, ref outcome, rep *report, attempted *int) (driverResult, error) {
	var err error
	for try := 0; try < countRuns; try++ {
		*attempted++
		var d driverResult
		if d, err = w.drive(sc, o); err != nil {
			rep.fail("driver count run", err)
			continue
		}
		if err = agree(d, ref); err != nil {
			rep.wrong("driver count run", err)
			return d, err
		}
		return d, nil
	}
	return driverResult{}, err
}

// endToEnd measures the end-to-end metrics with tracing off.  Every
// operation it makes is counted as attempted; every error, failed check
// or deadline as failed.
func endToEnd(w *workload, sc *scratch, dur time.Duration, rep *report) (int, error) {
	// The reference run also warms caches and lazy set-up.
	attempted := 1
	ref, err := w.reference(sc)
	if err != nil {
		return attempted, fmt.Errorf("reference run: %w", err)
	}
	if w.gate != nil {
		attempted++
		g, err := w.gate(sc)
		switch {
		case err != nil:
			rep.fail("validated gate run", err)
		case g.maxErr != 0:
			rep.wrong("validated gate run", fmt.Errorf("MaxErr = %g against the serial reference, want 0", g.maxErr))
		}
	}
	probeRan, probeFailed := 0, 0
	if w.probe != nil {
		probeRan = 1
		if err := w.probe(sc); err != nil {
			probeFailed = 1
			rep.notes = append(rep.notes, "known defect reproduced (validated run with liveness): "+err.Error())
		} else {
			rep.notes = append(rep.notes, "known defect NOT reproduced: the validated run with liveness passed")
		}
	}

	// The untraced driver gives the counts apps does not report, and must
	// agree with apps where it does.
	counted, err := countRun(w, sc, driverOpts{}, ref, rep, &attempted)
	if err != nil {
		return attempted, err
	}

	// Set-up runs (the same configuration with zero iterations) alternate
	// with the timed runs, so both sample the same stretch of host load.
	var setups []float64
	setup := func() {
		attempted++
		m, err := timed(func() error { _, err := w.apps(sc, 0, false); return err })
		if err != nil {
			rep.fail("set-up run", err)
			return
		}
		setups = append(setups, m.seconds)
	}
	var runs []sample
	var peaks []float64
	var imb float64
	for start, n := time.Now(), 0; n < minRuns || time.Since(start) < dur; n++ {
		setup()
		attempted++
		var o outcome
		m, err := timed(func() (err error) { o, err = w.apps(sc, w.iters, false); return err })
		if err != nil {
			rep.fail(fmt.Sprintf("timed run %d", n+1), err)
			continue
		}
		if err := w.check(o, ref); err != nil {
			rep.wrong(fmt.Sprintf("timed run %d", n+1), err)
			continue
		}
		runs = append(runs, m)
		if o.peakWire >= 0 {
			peaks = append(peaks, float64(o.peakWire))
		}
		imb = o.meanImbalance
	}
	for i := len(setups); i < setupRuns; i++ {
		setup()
	}
	if len(runs) == 0 || len(setups) == 0 {
		return attempted, fmt.Errorf("no successful run: %s", strings.Join(rep.failures, "; "))
	}
	msgs, bytes, peak := float64(counted.msgs), float64(counted.bytes), float64(counted.peakWire)
	if len(peaks) > 0 {
		peak = median(peaks)
	}
	solve := column(runs, sample.unstolen)
	all := column(runs, func(s sample) float64 { return s.seconds })
	steal := column(runs, func(s sample) float64 { return s.steal })
	alloc := column(runs, func(s sample) float64 { return s.allocMB })
	cpu := column(runs, func(s sample) float64 { return s.cpuSeconds })
	rep.samples["solve_s"] = solve
	rep.samples["wall_s"] = all
	rep.samples["steal_frac"] = steal
	rep.samples["setup_s"] = setups
	rep.samples["alloc_MB"] = alloc
	rep.samples["cpu_s"] = cpu
	q := quartiles(solve)
	rep.add("solve_s", q[1], "s", fmt.Sprintf("p25 %.6g  p75 %.6g  n %d, host steal removed", q[0], q[2], len(solve)))
	qa := quartiles(all)
	rep.add("wall_s", qa[1], "s", fmt.Sprintf("p25 %.6g  p75 %.6g  n %d, as measured", qa[0], qa[2], len(all)))
	rep.add("host_steal_frac", median(steal), "frac", "hypervisor steal during the timed runs")
	sq := quartiles(setups)
	rep.add("setup_s", sq[1], "s", fmt.Sprintf("p25 %.6g  p75 %.6g  n %d", sq[0], sq[2], len(setups)))
	rep.add("updates_per_s", w.work/q[1], "1/s", fmt.Sprintf("%.6g updates per run", w.work))
	// failed_frac counts the known-defect probe too; the result line's
	// failed count does not (see NOTES.md).
	nFailed, nAttempted := len(rep.failures)+probeFailed, attempted+probeRan
	rep.add("failed_frac", float64(nFailed)/float64(nAttempted), "frac",
		fmt.Sprintf("%d of %d operations, known-defect probe included", nFailed, nAttempted))
	rep.add("alloc_MB", median(alloc), "MB", "Go heap allocated per run")
	rep.add("cpu_s", median(cpu), "s", "process CPU time per run")
	rep.add("peak_wire_MB", peak/1e6, "MB", "0 where no data movement holds wire buffers")
	rep.add("msgs", msgs, "count", "data messages per run")
	rep.add("wire_MB", bytes/1e6, "MB", "payload per run")
	if w.name == "pic-bblock" {
		rep.add("imbalance_mean", imb, "ratio", "mean max/avg particles per rank")
	}
	return attempted, nil
}

// agree checks that a driver run reproduced the apps run: the checksum
// bit for bit, and the traffic wherever apps reports it.
func agree(d driverResult, ref outcome) error {
	if !sameBits(d.checksum, ref.checksum) {
		return fmt.Errorf("driver checksum %v, apps %v", d.checksum, ref.checksum)
	}
	if ref.msgs >= 0 && (d.msgs != ref.msgs || d.bytes != ref.bytes) {
		return fmt.Errorf("driver traffic %d msgs / %d B, apps %d / %d", d.msgs, d.bytes, ref.msgs, ref.bytes)
	}
	return nil
}

// perLayer runs the traced driver beside untraced apps runs and reports
// the per-layer metrics.
func perLayer(w *workload, sc *scratch, dur time.Duration, seed int64, rep *report) (int, error) {
	attempted := 1
	ref, err := w.reference(sc)
	if err != nil {
		return attempted, fmt.Errorf("reference run: %w", err)
	}
	counted, err := countRun(w, sc, driverOpts{census: true}, ref, rep, &attempted)
	if err != nil {
		return attempted, err
	}
	sizes := messageSizes(counted.sent)
	alpha, beta, err := fitAlphaBeta(sizes, seed, 150*time.Millisecond)
	if err != nil {
		return attempted, err
	}

	var untraced, traced []sample
	var runs []driverResult
	for start, n := time.Now(), 0; n < minRuns || time.Since(start) < dur; n++ {
		attempted++
		var o outcome
		m, err := timed(func() (err error) { o, err = w.apps(sc, w.iters, false); return err })
		if err != nil {
			rep.fail("untraced run", err)
		} else if err := w.check(o, ref); err != nil {
			rep.wrong("untraced run", err)
		} else {
			untraced = append(untraced, m)
		}

		attempted++
		var d driverResult
		m, err = timed(func() (err error) {
			d, err = w.drive(sc, driverOpts{traced: true, alpha: alpha, beta: beta})
			return err
		})
		if err != nil {
			rep.fail("traced run", err)
			continue
		}
		if err := agree(d, outcome{checksum: counted.checksum, msgs: counted.msgs, bytes: counted.bytes}); err != nil {
			rep.wrong("traced run", err)
			continue
		}
		traced = append(traced, m)
		runs = append(runs, d)
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return attempted, fmt.Errorf("no successful traced run: %s", strings.Join(rep.failures, "; "))
	}
	rp, err := w.replay(counted)
	if err != nil {
		return attempted, fmt.Errorf("layer replay: %w", err)
	}
	perRun := map[string][]float64{}
	for _, d := range runs {
		for k, v := range layerMetrics(d) {
			perRun[k] = append(perRun[k], v)
		}
	}
	last := runs[len(runs)-1]
	tracedS, untracedS := median(column(traced, sample.unstolen)), median(column(untraced, sample.unstolen))
	med := func(k string) float64 { return median(perRun[k]) }
	// Self times are as measured, so shares are of the measured wall.
	wall := median(column(traced, func(s sample) float64 { return s.seconds }))
	share := func(k string) float64 { return med(k+"_s") / wall }

	rep.add("kernels.busy_s", med("kernels_s"), "s", "per rank")
	rep.add("kernels.points", last.points, "count", "")
	rep.add("kernels.Mpts_per_s", med("kernels.Mpts_per_s"), "Mpts/s", "per busy core-second")
	rep.add("kernels.computed_MB", last.computedBytes/1e6, "MB", "computed from array sizes, not measured")
	rep.add("core.distribute_s", med("core.distribute_s"), "s", "per rank")
	rep.add("core.distribute_share", share("core.distribute"), "frac", "of traced wall")
	rep.add("darray.redistribute_s", rp.redistS, "s", "layer replay, per rank")
	rep.add("darray.redistribute_MBps", rp.redistMBps, "MB/s", "layer replay")
	rep.add("darray.pack_MBps", rp.packMBps, "MB/s", "layer replay on the run's intersection grids")
	rep.add("darray.ghost_s", med("darray.ghost_s"), "s", "per rank")
	rep.add("darray.ghost_share", share("darray.ghost"), "frac", "of traced wall")
	rep.add("darray.ghost_wait_s", med("darray.ghost_wait_s"), "s", "per rank")
	rep.add("darray.ghost_wait_share", share("darray.ghost_wait"), "frac", "of traced wall")
	rep.add("redist.plan_s", med("redist.plan_s"), "s", "per rank")
	rep.add("redist.plan_share", share("redist.plan"), "frac", "of traced wall")
	rep.add("redist.cache_hit_ratio", med("redist.cache_hit_ratio"), "ratio", fmt.Sprintf("%d hits, %d misses", last.hits, last.misses))
	rep.add("msg.data_msgs", float64(last.msgs), "count", "")
	rep.add("msg.data_MB", float64(last.bytes)/1e6, "MB", "")
	rep.add("msg.peak_wire_MB", med("msg.peak_wire_MB"), "MB", "")
	rep.add("msg.collective_s", med("msg.collective_s"), "s", "per rank")
	rep.add("msg.p2p_s", med("msg.p2p_s"), "s", "per rank")
	rep.add("msg.alpha_us", alpha*1e6, "us", fmt.Sprintf("ping-pong fit at %v B", sizes))
	rep.add("msg.beta_ns_per_B", beta*1e9, "ns/B", "")
	rep.add("msg.model_s", med("msg.model_s"), "s", fmt.Sprintf("α/β model makespan; traced solve_s %.6g", tracedS))
	rep.add("machine.barrier_wait_s", med("machine.barrier_s"), "s", "per rank")
	rep.add("machine.barriers", med("machine.barriers"), "count", "per rank")
	rep.add("machine.admit_s", med("machine.admit_s"), "s", "per rank")
	rep.add("machine.admit_share", share("machine.admit"), "frac", "of traced wall")
	rep.add("machine.await_join_s", med("machine.await_join_s"), "s", "per rank, joiner parked")
	rep.add("machine.poll_join_s", med("machine.poll_join_s"), "s", "per rank")
	rep.add("machine.transitions", float64(last.finalEpoch), "count", "")
	rep.add("ckpt.save_s", med("ckpt.save_s"), "s", "per rank")
	rep.add("ckpt.save_share", share("ckpt.save"), "frac", "of traced wall")
	rep.add("ckpt.save_MBps", med("ckpt.save_MBps"), "MB/s", "pario bytes written per second of save")
	rep.add("ckpt.restore_s", med("ckpt.restore_s"), "s", "per rank")
	rep.add("ckpt.restore_share", share("ckpt.restore"), "frac", "of traced wall")
	rep.add("pario.write_MB", med("pario.write_MB"), "MB", "")
	rep.add("pario.retries", med("pario.retries"), "count", "")
	rep.add("pario.repairs", med("pario.repairs"), "count", "")
	rep.add("trace.overhead_frac", tracedS/untracedS-1, "frac",
		fmt.Sprintf("traced %.6g s vs untraced %.6g s, n %d/%d", tracedS, untracedS, len(traced), len(untraced)))
	rep.add("layers.coverage", med("layers.coverage"), "frac", "layer self time ÷ rank wall")
	rep.samples["traced_solve_s"] = column(traced, func(s sample) float64 { return s.seconds })
	rep.samples["traced_steal_frac"] = column(traced, func(s sample) float64 { return s.steal })
	rep.samples["untraced_solve_s"] = column(untraced, func(s sample) float64 { return s.seconds })
	rep.samples["untraced_steal_frac"] = column(untraced, func(s sample) float64 { return s.steal })
	return attempted, nil
}

// layerMetrics extracts one traced run's per-layer numbers.  Times are
// self times averaged over the ranks that ran.
func layerMetrics(d driverResult) map[string]float64 {
	lt := d.layers
	out := map[string]float64{}
	for _, name := range []string{spKernel, spDistribute, spPlan, spGhost, spGhostWait, spBarrier,
		spAdmit, spAwaitJoin, spPollJoin, spSave, spRestore, spColl, spP2P} {
		out[name+"_s"] = lt.perRank(name)
	}
	if busy := lt.self[spKernel]; busy > 0 {
		out["kernels.Mpts_per_s"] = d.points / busy / 1e6
	}
	if n := d.hits + d.misses; n > 0 {
		out["redist.cache_hit_ratio"] = float64(d.hits) / float64(n)
	}
	out["msg.peak_wire_MB"] = float64(d.peakWire) / 1e6
	out["msg.model_s"] = d.modelS
	if lt.ranks > 0 {
		out["machine.barriers"] = float64(lt.calls[spBarrier]) / float64(lt.ranks)
	}
	if d.pario != nil {
		out["pario.write_MB"] = float64(d.pario.BytesWritten.Load()) / 1e6
		out["pario.retries"] = float64(d.pario.Retries.Load())
		out["pario.repairs"] = float64(d.pario.Repairs.Load())
		if s := lt.perRank(spSave); s > 0 {
			out["ckpt.save_MBps"] = out["pario.write_MB"] / s
		}
	}
	out["layers.coverage"] = lt.coverage()
	return out
}

// env is the environment header of a run record.
type env struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	CkptFS     string `json:"ckpt_fs"`
}

func (e env) line() string {
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s seed=%d ckpt_fs=%s",
		e.Go, e.GOMAXPROCS, e.NProc, e.CPU, e.Commit, e.Seed, e.CkptFS)
}

func environment(seed int64, ckptDir string) env {
	e := env{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Commit: commit(), Seed: seed, CkptFS: fsType(ckptDir)}
	if bi, ok := debug.ReadBuildInfo(); ok && e.Commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	return e
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads HEAD from the checkout's .git, when there is one.
func commit() string {
	b, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	h := strings.TrimSpace(string(b))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return ""
	}
	return h
}

// writeRecord saves the run's record — environment header, every metric
// with its unit, the raw samples behind the medians, and any failure —
// under workDir/records for perfbench/ledger.py to aggregate.
func writeRecord(name string, seed int64, trace int, e env, rep *report) {
	dir := filepath.Join(workDir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		return
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": name, "seed": seed, "trace": trace, "env": e,
		"metrics": rep.all, "samples": rep.samples, "failures": rep.failures, "notes": rep.notes,
	}, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace)), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
}

// fsType names the filesystem holding path (the checkpoint directory).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x2fc12fc1:
		return "zfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	case 0x01021997:
		return "9p"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
