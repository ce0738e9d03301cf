package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tpal/internal/minipar"
	"tpal/internal/minipar/autopar"
	"tpal/internal/tpal"
	"tpal/internal/tpal/analysis"
	"tpal/internal/tpal/asm"
	"tpal/internal/tpal/machine"
	"tpal/internal/tpal/machine/compile"
	"tpal/internal/tpal/opt"
)

// Spans of the traced run. They are recorded from the benchmark's own
// code, around its calls into each layer's public functions, kept in
// memory and written out at the end.

// span is one timed interval. Spans of one request share Req; Parent is
// the ID of the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Shape  string `json:"shape,omitempty"` // the request's generator family
	Start  int64  `json:"start_ns"`        // since the recorder started
	End    int64  `json:"end_ns"`
}

type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span and returns its ID.
func (r *recorder) add(name, shape string, parent, req int64, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Shape: shape,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// time runs f inside a root span of request id.
func (r *recorder) time(name string, req *request, id int64, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.add(name, req.Shape, 0, id, t0, t1)
	return t1.Sub(t0)
}

// request records one served request: the whole of it from due to
// terminal, the Submit call, and the queue wait and execution read from
// the job's timestamps. A nil recorder records nothing.
func (r *recorder) request(s *sent) {
	if r == nil {
		return
	}
	shape := s.req.Shape
	if !s.settled {
		r.add("serve.submit", shape, 0, s.id, s.start, s.end)
		return
	}
	root := r.add("loadgen.request", shape, 0, s.id, s.due, s.finished)
	r.add("serve.submit", shape, root, s.id, s.start, s.end)
	if !s.started.IsZero() && !s.cached && !s.coalesced {
		r.add("serve.queue", shape, root, s.id, s.submitted, s.started)
		r.add("serve.exec", shape, root, s.id, s.started, s.finished)
	}
}

// selfTimes returns, per span name, the total self time in ms: each
// span's duration minus the part of it its children cover.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int64][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range r.spans {
		covered := int64(0)
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// printByShape prints, for each kind of layer-call span (the replay's
// calls, the kernel runs), the median call duration per generator shape
// or kernel: per-program costs such as minipar.compile for each sample,
// which the layer totals hide.
func (r *recorder) printByShape(w io.Writer) {
	r.mu.Lock()
	byKind := map[string]map[string][]float64{}
	for _, s := range r.spans {
		if s.Parent != 0 || s.Name == "loadgen.request" || s.Name == "serve.submit" {
			continue
		}
		if byKind[s.Name] == nil {
			byKind[s.Name] = map[string][]float64{}
		}
		byKind[s.Name][s.Shape] = append(byKind[s.Name][s.Shape], float64(s.End-s.Start)/1e6)
	}
	r.mu.Unlock()
	fmt.Fprintf(w, "%-22s %-18s %6s %12s\n", "span", "shape", "calls", "p50_ms")
	for _, kind := range sortedKeys(byKind) {
		for _, shape := range sortedKeys(byKind[kind]) {
			d := byKind[kind][shape]
			fmt.Fprintf(w, "%-22s %-18s %6d %12.4f\n", kind, shape, len(d), pct(d, 50))
		}
	}
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats accumulates the replay's per-layer measurements.
type layerStats struct {
	mpParse, mpCompile, autoT, asmParse, analyze, optimize, lower []float64
	instrs                                                        []float64
	sites, diags, rewrites, reverts, saved, hoisted               int64
	steps, forks, promotions, compiledSteps                       int64
	interpWall, compiledWall                                      time.Duration
}

// replay runs the traced pass's distinct inputs again, one layer call at
// a time, each inside a span: the front end (minipar.Parse/Compile,
// autopar.TransformSource or asm.Parse), analysis.Analyze, opt.Optimize,
// compile.Compile, and machine.RunBackend on the interpreter and the
// lowered program's compiled run. It stops at budget.
func replay(res *result, rec *recorder, ss []sent, budget time.Duration) {
	var ls layerStats
	seen := map[string]bool{}
	deadline := time.Now().Add(budget)
	for _, s := range ss {
		if time.Now().After(deadline) {
			break
		}
		key := s.req.Source + fmt.Sprint(s.req.Args)
		if seen[key] {
			continue
		}
		seen[key] = true
		res.note(replayOne(&ls, rec, s.req, s.id))
	}
	v := res.values
	v["minipar.parse_ms_p50"] = pct(ls.mpParse, 50)
	v["minipar.parse_ms_total"] = total(ls.mpParse)
	v["minipar.compile_ms_p50"] = pct(ls.mpCompile, 50)
	v["minipar.compile_ms_total"] = total(ls.mpCompile)
	v["minipar.tpal_instrs"] = pct(ls.instrs, 50)
	v["autopar.transform_ms_p50"] = pct(ls.autoT, 50)
	v["autopar.sites_parallelized"] = float64(ls.sites)
	v["asm.parse_ms_p50"] = pct(ls.asmParse, 50)
	v["analysis.analyze_ms_p50"] = pct(ls.analyze, 50)
	v["analysis.analyze_ms_total"] = total(ls.analyze)
	v["analysis.diags"] = float64(ls.diags)
	v["opt.optimize_ms_p50"] = pct(ls.optimize, 50)
	v["opt.rewrites"] = float64(ls.rewrites)
	v["opt.reverts"] = float64(ls.reverts)
	v["opt.steps_saved"] = float64(ls.saved)
	v["machine.steps"] = float64(ls.steps)
	v["machine.steps_per_s"] = perSec(ls.steps, ls.interpWall)
	v["machine.forks"] = float64(ls.forks)
	v["machine.promotions"] = float64(ls.promotions)
	v["compile.lower_ms_p50"] = pct(ls.lower, 50)
	v["compile.steps_per_s"] = perSec(ls.compiledSteps, ls.compiledWall)
	v["compile.checks_hoisted"] = float64(ls.hoisted)
}

func perSec(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// replayOne pushes one request through the layers and checks every
// machine result against the request's reference.
func replayOne(ls *layerStats, rec *recorder, r *request, id int64) error {
	var prog *tpal.Program
	var params []string
	var err error
	switch {
	case r.Auto:
		var out *autopar.Result
		ls.autoT = append(ls.autoT, ms(rec.time("autopar.transform", r, id, func() {
			out, err = autopar.TransformSource(r.Source, autopar.Options{})
		})))
		if err != nil {
			return fmt.Errorf("replay autopar: %w", err)
		}
		prog, params = out.Compiled, out.Program.Params
		ls.sites += int64(out.Parallelized)
	case r.Lang == "minipar":
		var p *minipar.Program
		ls.mpParse = append(ls.mpParse, ms(rec.time("minipar.parse", r, id, func() { p, err = minipar.Parse(r.Source) })))
		if err != nil {
			return fmt.Errorf("replay minipar parse: %w", err)
		}
		ls.mpCompile = append(ls.mpCompile, ms(rec.time("minipar.compile", r, id, func() { prog, err = minipar.Compile(p) })))
		if err != nil {
			return fmt.Errorf("replay minipar compile: %w", err)
		}
		params = p.Params
		ls.instrs = append(ls.instrs, float64(instrCount(prog)))
	default:
		ls.asmParse = append(ls.asmParse, ms(rec.time("asm.parse", r, id, func() { prog, err = asm.Parse(r.Source) })))
		if err != nil {
			return fmt.Errorf("replay asm: %w", err)
		}
	}

	// Entry registers as serve derives them: params plus argument keys.
	entrySet := map[tpal.Reg]bool{}
	for _, p := range params {
		entrySet[tpal.Reg(p)] = true
	}
	regs := machine.RegFile{}
	for k, v := range r.Args {
		entrySet[tpal.Reg(k)] = true
		regs[tpal.Reg(k)] = machine.IntV(v)
	}
	var entry []tpal.Reg
	for reg := range entrySet {
		entry = append(entry, reg)
	}
	sort.Slice(entry, func(a, b int) bool { return entry[a] < entry[b] })

	var rep *analysis.Report
	ls.analyze = append(ls.analyze, ms(rec.time("analysis.analyze", r, id, func() {
		rep = analysis.Analyze(prog, analysis.Options{EntryRegs: entry, Races: true})
	})))
	ls.diags += int64(len(rep.Diags))
	if r.Want.Reject != "" {
		for _, d := range rep.Diags {
			if string(d.Code) == r.Want.Reject {
				return nil
			}
		}
		return fmt.Errorf("wrong answer: replay: analysis did not report %s", r.Want.Reject)
	}

	var optRes *opt.Result
	ls.optimize = append(ls.optimize, ms(rec.time("opt.optimize", r, id, func() {
		optRes, err = opt.Optimize(prog, opt.Options{EntryRegs: entry})
	})))
	if err != nil {
		return fmt.Errorf("replay optimize: %w", err)
	}
	ls.rewrites += int64(optRes.Rewrites())
	for _, p := range optRes.Passes {
		if p.Reverted {
			ls.reverts++
		}
	}
	optimized := optRes.Program

	var lowerRep *analysis.Report
	rec.time("analysis.analyze", r, id, func() {
		lowerRep = analysis.Analyze(optimized, analysis.Options{EntryRegs: entry})
	})
	var cp *compile.Program
	ls.lower = append(ls.lower, ms(rec.time("compile.lower", r, id, func() {
		cp, err = compile.Compile(optimized, compile.Options{Report: lowerRep})
	})))
	if err != nil {
		return fmt.Errorf("replay lower: %w", err)
	}
	ls.hoisted += int64(cp.Hoisted())

	cfg := machine.Config{Heartbeat: serveHeartbeat, Regs: regs, MaxSteps: 1 << 40}
	check := func(res machine.Result, err error) error {
		if err != nil {
			return fmt.Errorf("replay run: %w", err)
		}
		return checkValue(r.Want, res.Regs.Get(tpal.Reg(r.Want.Reg)).String())
	}
	var before, after, compiled machine.Result
	var errB, errA, errC error
	rec.time("machine.run_interp", r, id, func() { before, errB = machine.RunBackend(prog, cfg) })
	ls.interpWall += rec.time("machine.run_interp", r, id, func() { after, errA = machine.RunBackend(optimized, cfg) })
	ls.compiledWall += rec.time("machine.run_compiled", r, id, func() { compiled, errC = cp.Run(cfg) })
	for _, e := range []error{check(before, errB), check(after, errA), check(compiled, errC)} {
		if e != nil {
			return e
		}
	}
	ls.saved += before.Stats.Steps - after.Stats.Steps
	ls.steps += after.Stats.Steps
	ls.forks += after.Stats.Forks
	ls.promotions += after.Stats.HandlerRuns
	ls.compiledSteps += compiled.Stats.Steps
	return nil
}

func instrCount(p *tpal.Program) int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs) + 1 // plus the terminator
	}
	return n
}
