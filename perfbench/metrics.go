package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tpal/internal/stats"
)

// metric is one catalog entry; BENCHMARK.json lists the same names and
// units (main_test.go keeps the two in step).
type metric struct {
	name, unit string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; NOTES.md defines each per workload.
var endToEnd = []metric{
	{"turnaround_p50_ms", "ms"},
	{"turnaround_p99_ms", "ms"},
	{"throughput_jobs_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"kernel_wall_ms", "ms"},
	{"kernel_overhead", "ratio"},
}

// kernels are the rt-kernels workload's internal/bench kernels, with the
// input scale each runs at and its share of a block of open-loop runs.
// The first three take about 2.3 ms per heartbeat run at two workers, so
// the median run lands inside one population; mergesort-exp takes about
// 25 ms and is one run in fifty, so the 99th percentile lands near the
// middle of its runs rather than in the scheduling-noise tail of the
// short ones.
var kernels = []struct {
	name   string
	scale  float64
	weight int
}{
	{"plus-reduce-array", 0.3, 16},
	{"spmv-powerlaw", 0.35, 16},
	{"floyd-warshall-1K", 0.44, 17},
	{"mergesort-exp", 0.15, 1},
}

// spanNames are the span kinds the traced run records; each reports its
// total self time as <name>.self_ms.
var spanNames = []string{
	"loadgen.request", "serve.submit", "serve.queue", "serve.exec",
	"minipar.parse", "minipar.compile", "autopar.transform", "asm.parse",
	"analysis.analyze", "opt.optimize", "compile.lower",
	"machine.run_interp", "machine.run_compiled",
	"serial.run", "cilk.run", "heartbeat.run",
}

// perLayer returns the traced run's metrics, named <module>.<metric>.
func perLayer() []metric {
	ms := []metric{
		{"serve.submit_ms_p50", "ms"},
		{"serve.submit_ms_p50.tpal", "ms"},
		{"serve.submit_ms_p50.minipar", "ms"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.queue_wait_ms_p99", "ms"},
		{"serve.exec_ms_p50", "ms"},
		{"serve.exec_ms_p99", "ms"},
		{"serve.result_hit_frac", "frac"},
		{"serve.singleflight_collapses", "count"},
		{"serve.analysis_hit_frac", "frac"},
		{"serve.analyses", "count"},
		{"serve.admission_batches", "count"},
		{"serve.steals", "count"},
		{"serve.busy_frac", "frac"},
		{"serve.throttled", "count"},
		{"serve.result_evictions", "count"},
		{"serve.jobs_evicted", "count"},
		{"minipar.parse_ms_p50", "ms"},
		{"minipar.parse_ms_total", "ms"},
		{"minipar.compile_ms_p50", "ms"},
		{"minipar.compile_ms_total", "ms"},
		{"minipar.tpal_instrs", "count"},
		{"autopar.transform_ms_p50", "ms"},
		{"autopar.sites_parallelized", "count"},
		{"asm.parse_ms_p50", "ms"},
		{"analysis.analyze_ms_p50", "ms"},
		{"analysis.analyze_ms_total", "ms"},
		{"analysis.diags", "count"},
		{"opt.optimize_ms_p50", "ms"},
		{"opt.rewrites", "count"},
		{"opt.reverts", "count"},
		{"opt.steps_saved", "count"},
		{"machine.steps", "count"},
		{"machine.steps_per_s", "1/s"},
		{"machine.forks", "count"},
		{"machine.promotions", "count"},
		{"compile.lower_ms_p50", "ms"},
		{"compile.steps_per_s", "1/s"},
		{"compile.checks_hoisted", "count"},
	}
	for _, k := range kernels {
		for _, m := range []metric{
			{"heartbeat.wall_ms", "ms"}, {"serial.wall_ms", "ms"}, {"cilk.wall_ms", "ms"},
			{"heartbeat.promotions", "count"}, {"heartbeat.heartbeats_seen", "count"},
			{"sched.steals", "count"}, {"sched.failed_steals", "count"}, {"sched.utilization", "frac"},
			{"heartbeat.work_ms", "ms"}, {"heartbeat.span_ms", "ms"},
		} {
			ms = append(ms, metric{m.name + "." + k.name, m.unit})
		}
	}
	ms = append(ms, metric{"loadgen.late_p99_ms", "ms"}, metric{"trace.overhead_frac", "frac"})
	for _, s := range spanNames {
		ms = append(ms, metric{s + ".self_ms", "ms"})
	}
	return append(ms,
		metric{"workload.hit_share", "frac"},
		metric{"workload.distinct_fp_share", "frac"},
		metric{"workload.minipar_share", "frac"},
		metric{"workload.reject_share", "frac"},
		metric{"workload.autopar_share", "frac"},
		metric{"workload.fail_frac", "frac"},
	)
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	wrong             int                // failures that were wrong answers
	values            map[string]float64 // metric name -> value
	firstErr          error
	samples           map[string]int // sample counts behind the percentiles, for the table
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

// note records one checked outcome.
func (r *result) note(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if isWrong(err) {
		r.wrong++
	}
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *result) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// report prints the human-readable table and, as the last line, the JSON
// object with the catalog's metrics.
func (r *result) report(w io.Writer, catalog []metric, shares []string) error {
	fmt.Fprintf(w, "%-44s %16s  %s\n", "metric", "value", "unit")
	out := make(map[string]any, len(catalog))
	for _, m := range catalog {
		v, ok := r.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		fmt.Fprintf(w, "%-44s %16.6g  %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, k := range sortedKeys(r.samples) {
		fmt.Fprintf(w, "%-44s %16d  samples\n", k, r.samples[k])
	}
	for _, s := range shares {
		fmt.Fprintf(w, "%-44s %16.6g  frac\n", s, r.values[s])
	}
	fmt.Fprintf(w, "%-44s %16.6g  frac  (%d of %d attempted)\n", "fail_frac", r.failFrac(), r.failed, r.attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   r.wrong == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Distribution helpers over milliseconds.

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

func total(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// rssSampler tracks the process's peak resident set while running,
// sampling /proc/self/statm every few milliseconds.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes; written by the sampler, read after stop
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := int64(os.Getpagesize())
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := strings.Fields(string(b)); len(f) > 1 {
					if n, err := strconv.ParseInt(f[1], 10, 64); err == nil && n*page > s.peak {
						s.peak = n * page
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the peak in MB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// timeSetup runs setup at least three times, and more until a second
// has passed (at most a hundred), and returns the median duration: a
// set-up of milliseconds or less is timed often enough that its median
// holds still. The value of the last run is kept and earlier ones are
// released.
func timeSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var secs []float64
	begin := time.Now()
	for len(secs) < 3 || (time.Since(begin) < time.Second && len(secs) < 100) {
		if len(secs) > 0 {
			release(last)
		}
		runtime.GC() // no set-up pays for earlier garbage
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, stats.Median(secs), nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
