package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpal/internal/minipar"
	"tpal/internal/minipar/autopar"
	"tpal/internal/serve"
	"tpal/internal/stats"
	"tpal/internal/tpal"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
)

// serveHeartbeat is serve's default ♥ (Config.Heartbeat), used when the
// benchmark runs a workload's programs on the machine directly.
const serveHeartbeat = 100

// serveWorkload is one traffic mix against a serve.Service built with
// the default Config.
type serveWorkload struct {
	rate      float64 // open-loop offered rate, requests/s
	block     int     // requests per block of the mix (gen.go)
	openFrac  float64 // share of the timed phase given to the open loop
	window    int     // closed-loop jobs kept outstanding
	closedCap float64 // upper bound on closed-loop jobs/s, sizes the request pool
	warm      string  // "", "programs" or "keys": what set-up runs once
	lower     bool    // pre-lower the minipar samples to TPAL at set-up
	fill      bool    // fill the result store and job retention at set-up
	gen       func(seed int64, samples []sample, ref *oracle, n int) []request
	// kernel is the program set of the kernel phase, which runs the
	// machine without serve: every workload reports kernel_wall_ms and
	// kernel_overhead (NOTES.md, Kernel sets).
	kernel func(samples []sample, ref *oracle) []request
}

// inputs are a serve workload's generated requests, with their
// references, and its kernel set. Making them is the benchmark's own
// work, done once before the set-up that setup_s times.
type inputs struct {
	samples      []sample
	open, closed []request
	warm         []request // what set-up submits once (warmSet)
	kernel       []kprog
}

func drain(svc *serve.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = svc.Drain(ctx) // a forced drain still stops every worker
}

// loadSamples reads the checked-in minipar samples; with lower set it
// also lowers each to TPAL text, as serve-exec submits them.
func loadSamples(repo string, lower bool) ([]sample, error) {
	var out []sample
	for _, name := range []string{"sumsquares", "fib", "mixed", "prod-pow", "triple-nest"} {
		b, err := os.ReadFile(filepath.Join(repo, "internal", "minipar", "testdata", name+".mp"))
		if err != nil {
			return nil, fmt.Errorf("read minipar sample: %w", err)
		}
		s := sample{name: name, src: string(b), sized: sampleSizes[name]}
		if lower {
			if s.tpal, err = lowerSample(s); err != nil {
				return nil, err
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// lowerSample compiles a sample to TPAL text with minipar.Compile.
func lowerSample(s sample) (string, error) {
	p, err := minipar.Parse(s.src)
	if err != nil {
		return "", fmt.Errorf("parse %s: %w", s.name, err)
	}
	prog, err := minipar.Compile(p)
	if err != nil {
		return "", fmt.Errorf("compile %s: %w", s.name, err)
	}
	return prog.String(), nil
}

// prepare makes the workload's inputs for one run.
func (w *serveWorkload) prepare(o opts) (*inputs, error) {
	samples, err := loadSamples(o.repo, w.lower)
	if err != nil {
		return nil, err
	}
	ref := newOracle()
	openS, closedS, _ := o.phases(w.openFrac)
	nOpen := int(w.rate*openS) / w.block * w.block       // the closed-loop pool starts on a block
	nClosed := int(w.closedCap*closedS) + rounds*w.block // each round's segment starts on a block
	reqs := w.gen(o.seed, samples, ref, nOpen+nClosed)
	kernel, err := prepareKernels(w.kernel(samples, ref))
	if err != nil {
		return nil, err
	}
	return &inputs{samples: samples, open: reqs[:nOpen], closed: reqs[nOpen:], warm: w.warmSet(reqs), kernel: kernel}, nil
}

// setup is what setup_s times: building the service with the default
// Config, the pre-lowering a deployment that submits TPAL does (the
// generated requests already hold the lowered text, so the lowering is
// redone here and must agree), the warm-up and the store fill. With rec
// set, each lowering is a setup.minipar.compile span.
func (w *serveWorkload) setup(in *inputs, seed int64, rec *recorder) (*serve.Service, error) {
	svc := serve.New(serve.Config{})
	err := func() error {
		for _, s := range in.samples {
			if w.lower {
				t0 := time.Now()
				text, err := lowerSample(s)
				if err != nil {
					return err
				}
				if text != s.tpal {
					return fmt.Errorf("lowering %s twice gave two programs", s.name)
				}
				rec.since("setup.minipar.compile", "mp-"+s.name, 0, t0)
			}
		}
		if err := warmUp(svc, in); err != nil {
			return err
		}
		if w.fill {
			return fillStores(svc, seed)
		}
		return nil
	}()
	if err != nil {
		drain(svc)
		return nil, err
	}
	return svc, nil
}

// fillStores submits distinct small jobs until the result store and the
// job retention both evict, so that every timed job writes to full
// stores, as on a service that has been up for a while, and the heap the
// garbage collector paces against is the same from run to run. The caps
// are observed rather than assumed, so a changed default is measured the
// way users would get it.
func fillStores(svc *serve.Service, seed int64) error {
	g := newGen(seed, 5)
	const chunk = 512
	for n := int64(0); ; n++ {
		if snap := svc.Snapshot(); snap.ResultEvictions > 0 && snap.JobsEvicted > 0 {
			return nil
		}
		if n == 64 {
			return fmt.Errorf("fill: stores not evicting after %d jobs", n*chunk)
		}
		reqs := make([]request, chunk)
		for i := range reqs {
			reqs[i] = tpalProd(g.intn(2, 9), g.intn(2, 9))
			reqs[i].Tenant = fmt.Sprintf("t%02d", i%16)
			reqs[i].Args[saltReg] = -2 - n*chunk - int64(i) // warm-up uses -1, requests > 0
		}
		ss, _, _ := closedLoop(svc, reqs, 8, time.Hour, 0, nil)
		for _, s := range ss {
			if s.err != nil {
				return fmt.Errorf("fill: %w", s.err)
			}
		}
	}
}

// warmSet picks the requests set-up submits to fill the caches the
// workload is meant to find warm: serve-exec runs every program once
// (analysis cache) with a salt no request uses; serve-hot runs every key
// once (result store).
func (w *serveWorkload) warmSet(reqs []request) []request {
	if w.warm == "" {
		return nil
	}
	seen := map[string]bool{}
	var out []request
	for _, r := range reqs {
		key := r.Source
		if w.warm == "keys" {
			key += fmt.Sprint(r.Args)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		if w.warm == "programs" {
			args := make(map[string]int64, len(r.Args))
			for k, v := range r.Args {
				args[k] = v
			}
			args[saltReg] = -1
			r.Args = args
		}
		out = append(out, r)
	}
	return out
}

// warmUp submits the warm set and checks every outcome.
func warmUp(svc *serve.Service, in *inputs) error {
	jobs := make([]*serve.Job, 0, len(in.warm))
	for _, r := range in.warm {
		j, err := svc.Submit(r.submit())
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		<-j.Done()
		if err := checkJob(in.warm[i].Want, j); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (r *request) submit() serve.SubmitRequest {
	return serve.SubmitRequest{Tenant: r.Tenant, Lang: r.Lang, Source: r.Source, Args: r.Args, AutoParallelize: r.Auto}
}

// sent is one submission as the load generator saw it, and its job's
// outcome once the job is terminal. The job record itself is dropped
// then, so the benchmark keeps no more jobs alive than are in flight.
type sent struct {
	req        *request
	id         int64     // request id shared by the request's spans
	due        time.Time // open loop: when it was scheduled; closed: = start
	start, end time.Time // the Submit call
	err        error     // a refusal, or any outcome but the expected one

	settled                      bool // a job was created and reached a terminal state
	fp                           string
	cached, coalesced            bool
	submitted, started, finished time.Time
}

// submitOne calls Submit and records the call's timing.
func submitOne(svc *serve.Service, r *request, id int64, due time.Time) (sent, *serve.Job) {
	s := sent{req: r, id: id, due: due, start: time.Now()}
	j, err := svc.Submit(r.submit())
	s.end = time.Now()
	if err != nil {
		s.err = submitErr(err)
	}
	return s, j
}

// settle waits for the job to be terminal and records its outcome, and
// its spans when rec is not nil.
func (s *sent) settle(j *serve.Job, rec *recorder) {
	<-j.Done()
	s.settled = true
	s.fp, s.cached, s.coalesced = j.Fingerprint, j.Cached, j.Coalesced
	s.submitted, s.started, s.finished = j.Submitted, j.Started, j.Finished
	s.err = checkJob(s.req.Want, j)
	rec.request(s)
}

// generators is the number of load-generating goroutines: one per
// processor the Go scheduler uses, so at most the machine's core count.
var generators = runtime.GOMAXPROCS(0)

// openLoop sends reqs on a fixed schedule, request i due at i/rate after
// the start, from the generator goroutines. A collector settles the jobs
// in submission order as they finish; openLoop returns when all have.
func openLoop(svc *serve.Service, reqs []request, rate float64, idBase int64, rec *recorder) []sent {
	out := make([]sent, len(reqs))
	type pending struct {
		i int
		j *serve.Job
	}
	jobs := make(chan pending, len(reqs)) // sized to the number of sends
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for p := range jobs {
			out[p.i].settle(p.j, rec)
		}
	}()
	var next atomic.Int64
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s, j := submitOne(svc, &reqs[i], idBase+int64(i), due)
				out[i] = s
				if j != nil {
					jobs <- pending{i, j}
				} else {
					rec.request(&s)
				}
			}
		}()
	}
	wg.Wait()
	close(jobs)
	<-collected
	return out
}

// closedLoop keeps window jobs outstanding across the generators until
// dur has passed (or the pool runs out), then waits for every job. The
// window is split over at most window generators, so the shares add up
// to it on any core count. It returns the sends and the phase's start
// and end.
func closedLoop(svc *serve.Service, reqs []request, window int, dur time.Duration, idBase int64, rec *recorder) ([]sent, time.Time, time.Time) {
	gens := min(generators, window)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	lists := make([][]sent, gens)
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		per := window / gens
		if g < window%gens {
			per++
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []sent
			var inflight []*serve.Job // of mine[len(mine)-len(inflight):]
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					break
				}
				s, j := submitOne(svc, &reqs[i], idBase+int64(i), time.Now())
				if j == nil {
					rec.request(&s)
				}
				mine = append(mine, s)
				inflight = append(inflight, j)
				for len(inflight) >= per {
					settleOldest(mine, &inflight, rec)
				}
			}
			for len(inflight) > 0 {
				settleOldest(mine, &inflight, rec)
			}
			lists[g] = mine
		}(g)
	}
	wg.Wait()
	end := time.Now()
	if end.After(deadline) {
		end = deadline
	}
	var out []sent
	for _, l := range lists {
		out = append(out, l...)
	}
	return out, start, end
}

// settleOldest settles the oldest in-flight job of a generator's sends.
func settleOldest(mine []sent, inflight *[]*serve.Job, rec *recorder) {
	if j := (*inflight)[0]; j != nil {
		mine[len(mine)-len(*inflight)].settle(j, rec)
	}
	*inflight = (*inflight)[1:]
}

// checkAll notes every send in res and returns the turnarounds (due to
// terminal) of the successful ones, in ms.
func checkAll(res *result, ss []sent) []float64 {
	var turn []float64
	for _, s := range ss {
		res.note(s.err)
		if s.err == nil {
			turn = append(turn, ms(s.finished.Sub(s.due)))
		}
	}
	return turn
}

// finishedBy counts a closed-loop segment's successful jobs that
// finished by end.
func finishedBy(ss []sent, end time.Time) int {
	n := 0
	for _, s := range ss {
		if s.err == nil && !s.finished.After(end) {
			n++
		}
	}
	return n
}

// shares measures the workload properties the mix was built for.
func shares(res *result, ss []sent) {
	if len(ss) == 0 {
		return
	}
	fps := map[string]bool{}
	var hits, mp, rej, auto, jobs float64
	for _, s := range ss {
		if s.req.Lang == "minipar" {
			mp++
		}
		if s.req.Want.Reject != "" {
			rej++
		}
		if s.req.Auto {
			auto++
		}
		if s.settled {
			jobs++
			fps[s.fp] = true
			if s.cached {
				hits++
			}
		}
	}
	n := float64(len(ss))
	res.values["workload.hit_share"] = hits / n
	res.values["workload.distinct_fp_share"] = float64(len(fps)) / jobs
	res.values["workload.minipar_share"] = mp / n
	res.values["workload.reject_share"] = rej / n
	res.values["workload.autopar_share"] = auto / n
}

var shareNames = []string{
	"workload.hit_share", "workload.distinct_fp_share", "workload.minipar_share",
	"workload.reject_share", "workload.autopar_share",
}

// rounds is how many times an untraced run cycles through its phases
// (NOTES.md, Load model). Each phase is cut into this many segments
// spread over the whole run, so a drift of the shared machine's speed is
// averaged into every metric instead of setting the one phase it fell on.
const rounds = 8

// run is the untraced measurement: rounds of the workload's programs on
// the machine directly, an open-loop segment and a closed-loop segment.
func (w *serveWorkload) run(o opts) (*result, error) {
	in, err := w.prepare(o)
	if err != nil {
		return nil, err
	}
	svc, setupS, err := timeSetup(func() (*serve.Service, error) { return w.setup(in, o.seed, nil) }, drain)
	if err != nil {
		return nil, err
	}
	defer drain(svc)
	res := newResult()
	res.values["setup_s"] = setupS

	_, closedS, kernelS := o.phases(w.openFrac)
	perOpen := len(in.open) / rounds
	pool, poolID := in.closed, int64(len(in.open))
	var ks kernelSamples
	var open []sent
	var turn []float64
	var done int
	var took time.Duration
	debug.FreeOSMemory() // set-up garbage is not part of the timed peak
	rss := startRSS()
	for r := 0; r < rounds; r++ {
		runtime.GC()
		ks.run(res, in.kernel, secs(kernelS/rounds))
		runtime.GC()
		seg := openLoop(svc, in.open[r*perOpen:(r+1)*perOpen], w.rate, int64(r*perOpen), nil)
		turn = append(turn, checkAll(res, seg)...)
		open = append(open, seg...)
		runtime.GC()
		closed, start, end := closedLoop(svc, pool, w.window, secs(closedS/rounds), poolID, nil)
		checkAll(res, closed)
		done, took = done+finishedBy(closed, end), took+end.Sub(start)
		next := min((len(closed)+w.block-1)/w.block*w.block, len(pool))
		pool, poolID = pool[next:], poolID+int64(next)
	}
	res.values["peak_rss_mb"] = rss.peakMB()

	res.values["turnaround_p50_ms"] = pct(turn, 50)
	res.values["turnaround_p99_ms"] = pct(turn, 99)
	// Jobs over time pooled across the segments, so the garbage
	// collector's cycles count in proportion, as users pay for them.
	res.values["throughput_jobs_s"] = float64(done) / took.Seconds()
	res.values["kernel_wall_ms"], res.values["kernel_overhead"] = ks.summary()
	res.samples["turnaround (open-loop requests)"] = len(turn)
	res.samples["throughput (jobs)"] = done
	res.samples["kernel (rounds per program)"] = len(ks.hb[0])
	shares(res, open)
	if len(turn) < 1000 {
		fmt.Fprintf(os.Stderr, "note: %d open-loop samples; p99 needs 1000 for ten beyond it\n", len(turn))
	}
	return res, nil
}

// runTraced is the traced run: the same phases untraced and then traced
// (the pair gives the tracing overhead), serve counters from the traced
// pass, and a replay of its inputs through each layer's entry points.
func (w *serveWorkload) runTraced(o opts) (*result, *recorder, error) {
	in, err := w.prepare(o)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	svc, err := w.setup(in, o.seed, rec)
	if err != nil {
		return nil, nil, err
	}
	defer drain(svc)
	res := newResult()
	openS, closedS, kernelS := o.phases(w.openFrac)
	half := len(in.open) / 2
	nOpen := min(int(w.rate*openS/2), half)
	closedDur := secs(closedS / 2)
	poolHalf := len(in.closed) / 2

	// Untraced pass, then the traced pass on the next requests. The
	// tracing overhead is the gap between their open-loop median
	// turnarounds.
	open := openLoop(svc, in.open[:nOpen], w.rate, 0, nil)
	untraced := pct(checkAll(res, open), 50)
	closedU, _, _ := closedLoop(svc, in.closed[:poolHalf], w.window, closedDur, 1<<20, nil)
	checkAll(res, closedU)

	before := svc.Snapshot()
	t0 := time.Now()
	openT := openLoop(svc, in.open[half:half+nOpen], w.rate, 2<<20, rec)
	traced := pct(checkAll(res, openT), 50)
	closedT, _, _ := closedLoop(svc, in.closed[poolHalf:], w.window, closedDur, 3<<20, rec)
	checkAll(res, closedT)
	wall := time.Since(t0)
	after := svc.Snapshot()
	all := append(append([]sent(nil), openT...), closedT...)

	res.values["trace.overhead_frac"] = traced/untraced - 1
	serveLayer(res, all, openT, before, after, wall)
	shares(res, openT)
	replay(res, rec, openT, secs(kernelS))
	zeroKernelLayer(res)
	return res, rec, nil
}

// serveLayer derives the serve.* metrics from the traced pass.
func serveLayer(res *result, all, open []sent, before, after serve.MetricsSnapshot, wall time.Duration) {
	var sub, subTPAL, subMP, wait, exec []float64
	busy := 0.0
	for _, s := range all {
		d := ms(s.end.Sub(s.start))
		sub = append(sub, d)
		if s.req.Lang == "minipar" {
			subMP = append(subMP, d)
		} else {
			subTPAL = append(subTPAL, d)
		}
		if s.settled && !s.cached && !s.coalesced && !s.started.IsZero() {
			wait = append(wait, ms(s.started.Sub(s.submitted)))
			exec = append(exec, ms(s.finished.Sub(s.started)))
			busy += ms(s.finished.Sub(s.started))
		}
	}
	var late []float64
	for _, s := range open {
		late = append(late, ms(s.start.Sub(s.due)))
	}
	d := func(a, b int64) float64 { return float64(b - a) }
	frac := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	v := res.values
	v["serve.submit_ms_p50"] = pct(sub, 50)
	v["serve.submit_ms_p50.tpal"] = pct(subTPAL, 50)
	v["serve.submit_ms_p50.minipar"] = pct(subMP, 50)
	v["serve.queue_wait_ms_p50"] = pct(wait, 50)
	v["serve.queue_wait_ms_p99"] = pct(wait, 99)
	v["serve.exec_ms_p50"] = pct(exec, 50)
	v["serve.exec_ms_p99"] = pct(exec, 99)
	subs := d(before.Submitted, after.Submitted)
	v["serve.result_hit_frac"] = 0
	if subs > 0 {
		v["serve.result_hit_frac"] = d(before.ResultHits, after.ResultHits) / subs
	}
	v["serve.singleflight_collapses"] = d(before.SingleflightCollapses, after.SingleflightCollapses)
	v["serve.analysis_hit_frac"] = frac(d(before.AnalysisHits, after.AnalysisHits), d(before.Analyses, after.Analyses))
	v["serve.analyses"] = d(before.Analyses, after.Analyses)
	v["serve.admission_batches"] = d(before.Batches, after.Batches)
	v["serve.steals"] = d(before.Steals, after.Steals)
	v["serve.busy_frac"] = busy / (ms(wall) * float64(after.Workers))
	v["serve.throttled"] = d(before.Throttled, after.Throttled)
	v["serve.result_evictions"] = d(before.ResultEvictions, after.ResultEvictions)
	v["serve.jobs_evicted"] = d(before.JobsEvicted, after.JobsEvicted)
	v["loadgen.late_p99_ms"] = pct(late, 99)
}

// kprog is one program of a workload's kernel set, ready to run on the
// machine directly.
type kprog struct {
	req  request
	prog *tpal.Program
	regs machine.RegFile
}

// prepareKernels front-ends each request the way serve would: assembly
// parse, minipar compile, or the autopar transform.
func prepareKernels(reqs []request) ([]kprog, error) {
	out := make([]kprog, 0, len(reqs))
	for _, r := range reqs {
		var prog *tpal.Program
		var err error
		switch {
		case r.Auto:
			var res *autopar.Result
			if res, err = autopar.TransformSource(r.Source, autopar.Options{}); err == nil {
				prog = res.Compiled
			}
		case r.Lang == "minipar":
			var p *minipar.Program
			if p, err = minipar.Parse(r.Source); err == nil {
				prog, err = minipar.Compile(p)
			}
		default:
			prog, err = asm.Parse(r.Source)
		}
		if err != nil {
			return nil, fmt.Errorf("kernel set %s: %w", r.Shape, err)
		}
		regs := machine.RegFile{}
		for k, v := range r.Args {
			regs[tpal.Reg(k)] = machine.IntV(v)
		}
		out = append(out, kprog{req: r, prog: prog, regs: regs})
	}
	return out, nil
}

// runKernel runs one kernel-set program on the interpreter with ♥ =
// serveHeartbeat (heartbeat) or no heartbeat (the serial elaboration).
func (k *kprog) run(heartbeat int64) (time.Duration, machine.Result, error) {
	t0 := time.Now()
	res, err := machine.RunBackend(k.prog, machine.Config{Heartbeat: heartbeat, Regs: k.regs, MaxSteps: 1 << 40})
	d := time.Since(t0)
	if err == nil {
		err = checkValue(k.req.Want, res.Regs.Get(tpal.Reg(k.req.Want.Reg)).String())
	}
	return d, res, err
}

// kernelSamples accumulates a serve workload's kernel phase: per
// program, the heartbeat walls and the per-round heartbeat/serial ratios.
type kernelSamples struct {
	hb, ratio [][]float64 // ms; ratio per round
}

// run runs the kernel set round-robin for dur, each program once with
// and once without heartbeat per round, in alternating order. Pairing the
// two runs of a round cancels the shared machine's slow drifts out of
// the ratio.
func (k *kernelSamples) run(res *result, ks []kprog, dur time.Duration) {
	if k.hb == nil {
		k.hb, k.ratio = make([][]float64, len(ks)), make([][]float64, len(ks))
	}
	deadline := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for i := range ks {
			var wall [2]float64 // heartbeat, serial
			for v := 0; v < 2; v++ {
				serial := (v+round)%2 == 1
				heartbeat := int64(serveHeartbeat)
				if serial {
					heartbeat = 0
				}
				d, _, err := ks[i].run(heartbeat)
				res.note(err)
				if serial {
					wall[1] = ms(d)
				} else {
					wall[0] = ms(d)
				}
			}
			k.hb[i] = append(k.hb[i], wall[0])
			k.ratio[i] = append(k.ratio[i], wall[0]/wall[1])
		}
	}
}

// summary returns the geomean over programs of the median heartbeat wall
// (ms) and of the median per-round heartbeat/serial ratio.
func (k *kernelSamples) summary() (float64, float64) {
	walls := make([]float64, len(k.hb))
	ratios := make([]float64, len(k.hb))
	for i := range k.hb {
		walls[i] = stats.Median(k.hb[i])
		ratios[i] = stats.Median(k.ratio[i])
	}
	return stats.Geomean(walls), stats.Geomean(ratios)
}

// zeroKernelLayer reports the rt-kernels layer metrics as zero: serve
// workloads never reach the native runtime.
func zeroKernelLayer(res *result) {
	for _, m := range perLayer() {
		for _, k := range kernels {
			if strings.HasSuffix(m.name, "."+k.name) {
				res.values[m.name] = 0
			}
		}
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
