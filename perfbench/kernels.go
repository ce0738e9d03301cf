package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"tpal/internal/bench"
	"tpal/internal/cilk"
	"tpal/internal/heartbeat"
	"tpal/internal/interrupt"
	"tpal/internal/stats"
)

// rt-kernels: the native heartbeat runtime (internal/heartbeat on
// internal/sched, beats from the ping-thread model of internal/interrupt)
// against the serial and Cilk variants of four internal/bench kernels.
// Kernel inputs come from internal/bench's own fixed generators; the
// seed orders the kernel runs.

// kernelRate is the open-loop rate of heartbeat kernel runs, runs/s, and
// kernelOpenFrac the open loop's share of the timed phase.
const (
	kernelRate     = 100
	kernelOpenFrac = 0.6
)

type kernelEnv struct {
	bs []bench.Benchmark
}

// setupKernels makes the kernels' inputs, which is what setup_s times
// on rt-kernels.
func setupKernels() (*kernelEnv, error) {
	env := &kernelEnv{}
	for _, k := range kernels {
		b, err := bench.ByName(k.name)
		if err != nil {
			return nil, err
		}
		b.Setup(k.scale)
		env.bs = append(env.bs, b)
	}
	return env, nil
}

// reference runs each kernel serially once, for the output Verify checks
// against: the benchmark's own work, outside the timed set-up.
func (env *kernelEnv) reference() {
	for _, b := range env.bs {
		b.RunSerial()
	}
}

func nproc() int { return runtime.GOMAXPROCS(0) }

// kernelOrder is the seeded sequence of kernel indices the loops walk:
// blocks holding each kernel weight times, in shuffled order.
func kernelOrder(seed int64, n int) []int {
	g := newGen(seed, 4)
	var block []int
	for k, kn := range kernels {
		for i := 0; i < kn.weight; i++ {
			block = append(block, k)
		}
	}
	out := make([]int, 0, n)
	for len(out) < n {
		for _, i := range g.blockOrder(len(block)) {
			out = append(out, block[i])
		}
	}
	return out[:n]
}

// variant runs are timed around the public Run entry points.
func runSerial(b bench.Benchmark) time.Duration {
	t0 := time.Now()
	b.RunSerial()
	return time.Since(t0)
}

func runCilk(b bench.Benchmark) (time.Duration, error) {
	t0 := time.Now()
	cilk.Run(cilk.Config{Workers: nproc()}, b.RunCilk)
	d := time.Since(t0)
	return d, verify(b)
}

func runHeartbeat(b bench.Benchmark, workers int) (time.Duration, heartbeat.Stats, error) {
	t0 := time.Now()
	st := heartbeat.Run(heartbeat.Config{
		Workers:   workers,
		Heartbeat: 100 * time.Microsecond,
		Mechanism: interrupt.NewPingThread(),
	}, b.RunHeartbeat)
	d := time.Since(t0)
	return d, st, verify(b)
}

func verify(b bench.Benchmark) error {
	if err := b.Verify(); err != nil {
		return fmt.Errorf("wrong answer: %w", err)
	}
	return nil
}

// kernelTimes accumulates the kernel phase's per-kernel samples.
type kernelTimes struct {
	serial, cilk, hb1, hbN [][]float64 // ms
	overhead               [][]float64 // per round: hb1 / serial
	stats                  [][]heartbeat.Stats
	req                    int64 // runs so far, the spans' request ids
}

// run runs rounds of every kernel in every variant (serial, Cilk at
// nproc, heartbeat at 1 and nproc workers) until dur passes.
func (kt *kernelTimes) run(res *result, env *kernelEnv, dur time.Duration, rec *recorder) {
	if n := len(env.bs); kt.serial == nil {
		kt.serial, kt.cilk = make([][]float64, n), make([][]float64, n)
		kt.hb1, kt.hbN = make([][]float64, n), make([][]float64, n)
		kt.overhead, kt.stats = make([][]float64, n), make([][]heartbeat.Stats, n)
	}
	deadline := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for i, b := range env.bs {
			for v := 0; v < 4; v++ {
				kt.req++
				req := kt.req
				t0 := time.Now()
				switch (v + round) % 4 {
				case 0:
					kt.serial[i] = append(kt.serial[i], ms(runSerial(b)))
					rec.since("serial.run", kernels[i].name, req, t0)
				case 1:
					d, err := runCilk(b)
					res.note(err)
					kt.cilk[i] = append(kt.cilk[i], ms(d))
					rec.since("cilk.run", kernels[i].name, req, t0)
				case 2:
					d, _, err := runHeartbeat(b, 1)
					res.note(err)
					kt.hb1[i] = append(kt.hb1[i], ms(d))
					rec.since("heartbeat.run", kernels[i].name, req, t0)
				case 3:
					d, st, err := runHeartbeat(b, nproc())
					res.note(err)
					kt.hbN[i] = append(kt.hbN[i], ms(d))
					kt.stats[i] = append(kt.stats[i], st)
					rec.since("heartbeat.run", kernels[i].name, req, t0)
				}
			}
			last := len(kt.serial[i]) - 1
			kt.overhead[i] = append(kt.overhead[i], kt.hb1[i][last]/kt.serial[i][last])
		}
	}
}

// since records a root span from t0 to now; a nil recorder records
// nothing.
func (r *recorder) since(name, kernel string, req int64, t0 time.Time) {
	if r != nil {
		r.add(name, kernel, 0, req, t0, time.Now())
	}
}

// wallAndOverhead are the two kernel end-to-end numbers: the geomean of
// the median nproc heartbeat wall, and the geomean of the median
// per-round ratio of 1-worker heartbeat wall to serial wall (the paper's
// Fig. 6 ratio; pairing the runs of a round cancels the shared machine's
// slow drifts).
func (kt *kernelTimes) wallAndOverhead() (float64, float64) {
	var walls, ratios []float64
	for i := range kt.hbN {
		walls = append(walls, stats.Median(kt.hbN[i]))
		ratios = append(ratios, stats.Median(kt.overhead[i]))
	}
	return stats.Geomean(walls), stats.Geomean(ratios)
}

// kernelOpenLoop runs the open-loop phase: the heartbeat runs at nproc
// of order, run i due at i/kernelRate after the start. It returns their
// turnarounds and how late each started (ms).
func kernelOpenLoop(res *result, env *kernelEnv, order []int) (turn, late []float64) {
	t0 := time.Now().Add(5 * time.Millisecond)
	for i, k := range order {
		due := t0.Add(time.Duration(float64(i) / kernelRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		_, _, err := runHeartbeat(env.bs[k], nproc())
		res.note(err)
		if err == nil {
			turn = append(turn, ms(time.Since(due)))
		}
		late = append(late, ms(start.Sub(due)))
	}
	return turn, late
}

// kernelClosedLoop runs heartbeat runs at nproc of order back to back
// for dur. It returns how many it made, how many succeeded and how long
// they took.
func kernelClosedLoop(res *result, env *kernelEnv, order []int, dur time.Duration) (runs, done int, took time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	for ; time.Now().Before(deadline); runs++ {
		_, _, err := runHeartbeat(env.bs[order[runs%len(order)]], nproc())
		res.note(err)
		if err == nil {
			done++
		}
	}
	return runs, done, time.Since(start)
}

func runKernels(o opts) (*result, error) {
	env, setupS, err := timeSetup(setupKernels, func(*kernelEnv) {})
	if err != nil {
		return nil, err
	}
	env.reference()
	res := newResult()
	res.values["setup_s"] = setupS
	// As in the serve workloads, the run cycles through its phases in
	// rounds.
	openS, closedS, kernelS := o.phases(kernelOpenFrac)
	perOpen := int(kernelRate*openS) / rounds
	order := kernelOrder(o.seed, rounds*perOpen+1<<16)
	closedOrder := order[rounds*perOpen:]
	var kt kernelTimes
	var turn []float64
	var done int
	var took time.Duration
	debug.FreeOSMemory() // set-up garbage is not part of the timed peak
	rss := startRSS()
	for r := 0; r < rounds; r++ {
		runtime.GC()
		kt.run(res, env, secs(kernelS/rounds), nil)
		runtime.GC()
		seg, _ := kernelOpenLoop(res, env, order[r*perOpen:(r+1)*perOpen])
		turn = append(turn, seg...)
		runtime.GC()
		runs, n, d := kernelClosedLoop(res, env, closedOrder, secs(closedS/rounds))
		closedOrder = closedOrder[runs%len(closedOrder):]
		done, took = done+n, took+d
	}
	res.values["peak_rss_mb"] = rss.peakMB()
	res.values["turnaround_p50_ms"] = pct(turn, 50)
	res.values["turnaround_p99_ms"] = pct(turn, 99)
	res.values["throughput_jobs_s"] = float64(done) / took.Seconds()
	res.values["kernel_wall_ms"], res.values["kernel_overhead"] = kt.wallAndOverhead()
	res.samples["turnaround (open-loop runs)"] = len(turn)
	res.samples["kernel (rounds per kernel)"] = len(kt.hbN[0])
	for _, s := range shareNames {
		res.values[s] = 0
	}
	return res, nil
}

// runKernelsTraced is the rt-kernels traced run: a short open loop for
// generator lateness, then the kernel phase untraced and traced.
func runKernelsTraced(o opts) (*result, *recorder, error) {
	env, err := setupKernels()
	if err != nil {
		return nil, nil, err
	}
	env.reference()
	res := newResult()
	rec := newRecorder()
	openS, _, _ := o.phases(kernelOpenFrac)
	openN := int(kernelRate * openS / 3)
	_, late := kernelOpenLoop(res, env, kernelOrder(o.seed, openN))
	half := secs((o.seconds - openS/3) / 2)
	var untraced, traced kernelTimes
	untraced.run(res, env, half, nil)
	traced.run(res, env, half, rec)
	wu, _ := untraced.wallAndOverhead()
	wt, _ := traced.wallAndOverhead()

	v := res.values
	v["trace.overhead_frac"] = wt/wu - 1
	v["loadgen.late_p99_ms"] = pct(late, 99)
	for i, k := range kernels {
		var prom, beats, steals, failed, util, work, spanMS []float64
		for _, st := range traced.stats[i] {
			prom = append(prom, float64(st.Promotions))
			beats = append(beats, float64(st.Sched.HeartbeatsSeen))
			steals = append(steals, float64(st.Sched.Steals))
			failed = append(failed, float64(st.Sched.FailedSteals))
			util = append(util, st.Sched.Utilization())
			work = append(work, float64(st.WorkNanos)/1e6)
			spanMS = append(spanMS, float64(st.SpanNanos)/1e6)
		}
		v["heartbeat.wall_ms."+k.name] = stats.Median(traced.hbN[i])
		v["serial.wall_ms."+k.name] = stats.Median(traced.serial[i])
		v["cilk.wall_ms."+k.name] = stats.Median(traced.cilk[i])
		v["heartbeat.promotions."+k.name] = stats.Median(prom)
		v["heartbeat.heartbeats_seen."+k.name] = stats.Median(beats)
		v["sched.steals."+k.name] = stats.Median(steals)
		v["sched.failed_steals."+k.name] = stats.Median(failed)
		v["sched.utilization."+k.name] = stats.Median(util)
		v["heartbeat.work_ms."+k.name] = stats.Median(work)
		v["heartbeat.span_ms."+k.name] = stats.Median(spanMS)
	}
	// The serve, front-end and machine layers are not on this workload's
	// path.
	for _, m := range perLayer() {
		if _, ok := v[m.name]; !ok && !isSelfTime(m.name) && m.name != "workload.fail_frac" {
			v[m.name] = 0
		}
	}
	return res, rec, nil
}
