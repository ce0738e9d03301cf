package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"tpal/internal/tpal/programs"
)

// Seeded input generation. Every workload draws its whole request
// sequence from one math/rand source seeded by -seed, in a fixed order,
// so the same seed yields a byte-identical sequence (main_test.go pins
// this). The program under test only ever sees the generated requests.

// request is one generated submission together with the reference its
// outcome is checked against.
type request struct {
	Tenant string           `json:"tenant"`
	Lang   string           `json:"lang"` // "tpal" or "minipar"
	Source string           `json:"source"`
	Args   map[string]int64 `json:"args"`
	Auto   bool             `json:"auto_parallelize,omitempty"`
	Shape  string           `json:"shape"` // generator family, for reports
	Want   want             `json:"want"`
}

// want is the independently computed expectation for one request:
// either a result register value or a rejection code.
type want struct {
	Reg    string `json:"reg,omitempty"`
	Value  int64  `json:"value"`
	Reject string `json:"reject,omitempty"` // TP code the admission gate must report
}

// gen is a deterministic generator: one rand source consumed in program
// order.
type gen struct{ r *rand.Rand }

func newGen(seed int64, stream int64) *gen {
	return &gen{r: rand.New(rand.NewSource(seed*1_000_003 + stream))}
}

func (g *gen) intn(lo, hi int64) int64 { return lo + g.r.Int63n(hi-lo+1) }

// logUniform draws from [lo, hi] with a uniform logarithm, so job sizes
// spread evenly over orders of magnitude.
func (g *gen) logUniform(lo, hi int64) int64 {
	return int64(float64(lo) * math.Pow(float64(hi)/float64(lo), g.r.Float64()))
}

// blockOrder returns a seeded permutation of 0..n-1: workloads walk
// their shapes in shuffled blocks, so every block holds exactly the same
// mix and only the order depends on the seed. That keeps the mix — and
// with it the offered work — identical across seeds.
func (g *gen) blockOrder(n int) []int { return g.r.Perm(n) }

// minipar program generator (serve-admit). Each program is a fresh
// instance of a form: a loop-nest depth, a statement count, a
// conditional or not, a parfor reduction, parcall recursion or a loop
// for autopar. The seed draws the constants, the arguments and the order;
// a unique constant in the return expression keeps every fingerprint
// distinct.

// form is the structure of a generated minipar program. Admission cost
// follows the structure rather than the constants, so a block of fixed
// forms costs the same for every seed.
type form struct {
	kind  string // "seq", "seq2": while nests of depth 1 and 2; "par": a parfor reduction; "rec": parcall recursion, no loop; "auto", "auto-carried": a loop for autopar
	stmts int    // local computations per loop level (seq, seq2, par)
	cond  bool   // fold them into the accumulator under a conditional
}

// genMinipar returns a minipar source of the given form and its argument
// vector.
func (g *gen) genMinipar(f form, uniq int64) (string, map[string]int64) {
	var b strings.Builder
	args := map[string]int64{}
	depth := 1
	if f.kind == "seq2" {
		depth = 2
	}
	if depth > 1 {
		b.WriteString("params n, m\n")
		args["n"], args["m"] = g.intn(4, 24), g.intn(4, 24)
	} else {
		b.WriteString("params n\n")
		args["n"] = g.intn(8, 96)
	}
	if f.kind == "rec" {
		fmt.Fprintf(&b, "\nfunc f(x) {\n  if x < %d { return x + %d }\n  parcall a, b = f(x - 1), f(x - 2)\n  return a + b + %d\n}\n\n",
			g.intn(2, 3), g.intn(0, 3), g.intn(0, 2))
	}
	b.WriteString("var acc = 0\n")
	switch f.kind {
	case "par":
		b.WriteString("parfor i0 in 0 .. n reduce(acc, +) {\n")
		g.stmts(&b, "  ", 0, f)
		b.WriteString("}\n")
	case "auto", "auto-carried":
		g.autoBody(&b, f.kind == "auto-carried")
	case "rec":
		fmt.Fprintf(&b, "var r = 0\nr = call f(%d)\nacc = acc + r + n\n", g.intn(6, 9))
	default: // seq, seq2: a while nest
		bounds := []string{"n", "m"}
		for lvl := 0; lvl < depth; lvl++ {
			ind := strings.Repeat("  ", lvl)
			fmt.Fprintf(&b, "%svar i%d = 0\n%swhile i%d < %s {\n", ind, lvl, ind, lvl, bounds[lvl])
			g.stmts(&b, ind+"  ", lvl, f)
		}
		for lvl := depth - 1; lvl >= 0; lvl-- {
			ind := strings.Repeat("  ", lvl+1)
			fmt.Fprintf(&b, "%si%d = i%d + 1\n%s}\n", ind, lvl, lvl, ind[2:])
		}
	}
	fmt.Fprintf(&b, "return acc + %d\n", uniq)
	return b.String(), args
}

// stmts emits the form's local computations over the loop index and
// folds the last into the accumulator, under a conditional if the form
// says so.
func (g *gen) stmts(b *strings.Builder, ind string, lvl int, f form) {
	for k := 0; k < f.stmts; k++ {
		fmt.Fprintf(b, "%svar t%d_%d = i%d * %d + %d\n", ind, lvl, k, lvl, g.intn(1, 9), g.intn(0, 20))
	}
	v := fmt.Sprintf("t%d_%d", lvl, f.stmts-1)
	if f.cond {
		fmt.Fprintf(b, "%sif %s %% %d == 0 {\n%s  acc = acc + %s\n%s}\n", ind, v, g.intn(2, 4), ind, v, ind)
	} else {
		fmt.Fprintf(b, "%sacc = acc + %s %% %d\n", ind, v, g.intn(3, 11))
	}
}

// autoBody emits a sequential loop for the autopar pass: an accumulate
// loop it turns into a reduction, or a carried loop it must leave alone
// (TP071). More loops per program multiply the admission cost (two
// independent loops become a par pair of parfors, ~1.7 s to admit), so
// each program has one.
func (g *gen) autoBody(b *strings.Builder, carried bool) {
	if carried {
		fmt.Fprintf(b, "var s = 1\nvar k = 0\nwhile k < n {\n  s = s * 2 + %d\n  k = k + 1\n}\nacc = acc + s\n", g.intn(1, 5))
		return
	}
	fmt.Fprintf(b, "var i = 0\nwhile i < n {\n  acc = acc + i * %d + %d\n  i = i + 1\n}\n", g.intn(1, 9), g.intn(0, 9))
}

// TPAL program generators (serve-admit): prod with a seeded initial
// accumulator, and the two must-reject families.

func prodVariant(k, a, b int64) request {
	src := strings.Replace(programs.ProdSource, "block prod [.] {\n  r := 0", fmt.Sprintf("block prod [.] {\n  r := %d", k), 1)
	return request{Lang: "tpal", Source: src, Args: map[string]int64{"a": a, "b": b},
		Want: want{Reg: "c", Value: k + prodWant(a, b)}}
}

// racyTPAL is a determinacy race: parent and forked child both write the
// same pre-fork stack cell. The interference pass must report TP060.
func (g *gen) racyTPAL(uniq int64) request {
	size := g.intn(1, 8)
	src := fmt.Sprintf(`program racy entry main

block main [.] {
  sp := snew
  salloc sp, %d
  jr := jralloc after
  fork jr, body
  mem[sp + %d] := %d
  join jr
}

block body [.] {
  mem[sp + %[2]d] := %d
  join jr
}

block after [jtppt assoc-comm; {}; comb] {
  halt
}

block comb [.] {
  join jr
}
`, size, g.intn(0, size-1), uniq, g.intn(1, 1000))
	return request{Lang: "tpal", Source: src, Args: map[string]int64{}, Want: want{Reject: "TP060"}}
}

// divergentTPAL is a loop whose guard never changes once entered. The
// trip pass must report TP090.
func (g *gen) divergentTPAL(uniq int64) request {
	src := fmt.Sprintf(`program divergent entry main

block main [.] {
  n := %d
  x := %d
  jump loop
}

block loop [.] {
  t := n == 0
  if-jump t, done
  x := x + %d
  jump loop
}

block done [.] {
  halt
}
`, g.intn(1, 99), uniq, g.intn(1, 9))
	return request{Lang: "tpal", Source: src, Args: map[string]int64{}, Want: want{Reject: "TP090"}}
}

// admitBlock is serve-admit's mix per 100 requests, each entry a shape,
// the form of its programs and its count. Admission cost on a two-core
// machine sets the proportions: a depth-1 while program or a TPAL prod
// variant costs about 6 ms to admit, a must-reject program under 1 ms, a
// depth-2 while nest, parfor or parcall program 20–30 ms, and an autopar
// reduction about 40 ms, the most of any. Its two per block are the top
// 2% of the open loop, so the 99th percentile lands in the middle of one
// population of like programs, not on the edge between two. Every form
// is fixed, so each block costs the same whatever the seed. A parcall
// program with a while nest as well costs twice as much and would set the
// 99th percentile alone, and parfor nests of depth 2 (about 0.3 s each)
// and 3 (over 1 s) cost far more; all are left out (NOTES.md).
var admitBlock = []struct {
	shape string
	form  form
	count int
}{
	{"mp-seq", form{"seq", 1, false}, 5}, {"mp-seq", form{"seq", 2, false}, 5}, {"mp-seq", form{"seq", 3, false}, 5},
	{"mp-seq", form{"seq", 1, true}, 5}, {"mp-seq", form{"seq", 2, true}, 5}, {"mp-seq", form{"seq", 3, true}, 5},
	{"mp-seq2", form{"seq2", 2, false}, 1}, {"mp-par", form{"par", 2, false}, 1}, {"mp-rec", form{kind: "rec"}, 2},
	{"mp-auto", form{kind: "auto"}, 2}, {"mp-auto-carried", form{kind: "auto-carried"}, 1},
	{"tpal-prod", form{}, 25}, {"reject-race", form{}, 19}, {"reject-diverge", form{}, 19},
}

// genAdmit is the serve-admit stream: every request a program the
// service has not seen.
func genAdmit(seed int64, ref *oracle, n int) []request {
	g := newGen(seed, 3)
	var shapes []shape
	uniq := g.intn(1, 1<<30) * 1000
	next := func() int64 { uniq++; return uniq }
	for _, e := range admitBlock {
		var mk func(g *gen, l int) request
		switch e.shape {
		case "tpal-prod":
			mk = func(g *gen, _ int) request { return prodVariant(next(), g.intn(50, 400), g.intn(2, 999)) }
		case "reject-race":
			mk = func(g *gen, _ int) request { return g.racyTPAL(next()) }
		case "reject-diverge":
			mk = func(g *gen, _ int) request { return g.divergentTPAL(next()) }
		default:
			mk = func(g *gen, _ int) request {
				src, args := g.genMinipar(e.form, next())
				return request{Lang: "minipar", Source: src, Args: args, Auto: strings.HasPrefix(e.form.kind, "auto"), Want: ref.want(src, args)}
			}
		}
		for i := 0; i < e.count; i++ {
			shapes = append(shapes, shape{e.shape, mk})
		}
	}
	return stream(g, shapes, 1, 32, n)
}

// Workload request streams. Each stream is built from blocks: a block
// holds a fixed multiset of shapes in seeded order, and each shape draws
// its arguments from the seed. nOpen requests feed the open-loop phase;
// the rest are the pool the closed-loop phase draws from.

// shape is one request family of a workload: make draws one request of
// that family at the given size level.
type shape struct {
	name string
	make func(g *gen, level int) request
}

// stream draws n requests, walking blocks of shapes × levels.
func stream(g *gen, shapes []shape, levels int, tenants int, n int) []request {
	out := make([]request, 0, n)
	for len(out) < n {
		for _, k := range g.blockOrder(len(shapes) * levels) {
			if len(out) == n {
				break
			}
			out = append(out, draw(g, shapes[k/levels], k%levels, tenants))
		}
	}
	return out
}

func draw(g *gen, s shape, level, tenants int) request {
	r := s.make(g, level)
	r.Shape = s.name
	r.Tenant = fmt.Sprintf("t%02d", g.r.Intn(tenants))
	return r
}

// Closed forms for the built-in corpus, independent of the machine.

func prodWant(a, b int64) int64 { return a * b }

func powWant(d, e int64) int64 {
	r := int64(1)
	for i := int64(0); i < e; i++ {
		r *= d
	}
	return r
}

func fibWant(n int64) int64 {
	a, b := int64(0), int64(1)
	for i := int64(0); i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// band draws from the level's octave [lo·2^level, lo·2^(level+1)).
func (g *gen) band(lo int64, level int) int64 {
	base := lo << level
	return g.logUniform(base, 2*base-1)
}

// salt is an entry register none of the programs reads. serve-exec puts
// a fresh value in every request so that each one is a distinct
// (program, args) pair and neither the result store nor singleflight
// can answer it, whatever the other arguments happen to be.
const saltReg = "salt"

func tpalProd(a, b int64) request {
	return request{Lang: "tpal", Source: programs.ProdSource, Args: map[string]int64{"a": a, "b": b},
		Want: want{Reg: "c", Value: prodWant(a, b)}}
}

func tpalPow(d, e int64) request {
	return request{Lang: "tpal", Source: programs.PowSource, Args: map[string]int64{"d": d, "e": e},
		Want: want{Reg: "f", Value: powWant(d, e)}}
}

func tpalFib(n int64) request {
	return request{Lang: "tpal", Source: programs.FibSource, Args: map[string]int64{"n": n},
		Want: want{Reg: "f", Value: fibWant(n)}}
}

// sample is one checked-in minipar program: its source, the TPAL text
// minipar.Compile lowers it to (serve-exec submits that), and a size
// function mapping a level to arguments.
type sample struct {
	name  string
	src   string
	tpal  string
	sized func(g *gen, level int) map[string]int64
}

// sampleSizes are the argument draws per checked-in sample, sized so the
// machine runs each level in roughly 0.5–25 ms.
var sampleSizes = map[string]func(g *gen, level int) map[string]int64{
	"sumsquares": func(g *gen, l int) map[string]int64 { return map[string]int64{"n": g.band(150, l)} },
	"fib":        func(g *gen, l int) map[string]int64 { return map[string]int64{"n": int64(9 + l)} },
	"mixed":      func(g *gen, l int) map[string]int64 { return map[string]int64{"n": g.band(100, l)} },
	"prod-pow": func(g *gen, l int) map[string]int64 {
		return map[string]int64{"d": g.band(12, l), "e": g.intn(2, 4)}
	},
	"triple-nest": func(g *gen, l int) map[string]int64 { return map[string]int64{"n": int64(4 + 2*l)} },
}

// execLevels is the number of size octaves serve-exec spreads jobs over.
const execLevels = 5

// heavyFib is serve-exec's heavy job, one per block of 41 (2.4%): fib(19)
// as TPAL, about 60 ms on the machine. The share puts the open loop's
// 99th percentile near the middle of the heavy jobs, a population of
// real work long enough that scheduling stalls of the shared machine
// (tens of ms) do not set it.
const heavyFib = 19

// genExec is the serve-exec stream: the corpus programs and the
// pre-lowered samples, every request with fresh arguments.
func genExec(seed int64, samples []sample, ref *oracle, n int) []request {
	g := newGen(seed, 1)
	shapes := []shape{
		{"prod", func(g *gen, l int) request { return tpalProd(g.band(200, l), g.intn(2, 999)) }},
		{"pow", func(g *gen, l int) request { return tpalPow(g.band(60, l), g.intn(2, 3)) }},
		{"fib", func(g *gen, l int) request { return tpalFib(int64(10 + l)) }},
	}
	heavy := shape{"fib-heavy", func(*gen, int) request { return tpalFib(heavyFib) }}
	for _, s := range samples {
		s := s
		shapes = append(shapes, shape{"mp-" + s.name, func(g *gen, l int) request {
			args := s.sized(g, l)
			return request{Lang: "tpal", Source: s.tpal, Args: args, Want: ref.want(s.src, args)}
		}})
	}
	// Blocks of shapes × levels plus the heavy job, in seeded order.
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		for _, k := range g.blockOrder(len(shapes)*execLevels + 1) {
			if len(reqs) == n {
				break
			}
			if k == len(shapes)*execLevels {
				reqs = append(reqs, draw(g, heavy, 0, 16))
			} else {
				reqs = append(reqs, draw(g, shapes[k/execLevels], k%execLevels, 16))
			}
		}
	}
	salt := g.intn(1, 1<<40)
	for i := range reqs {
		reqs[i].Args[saltReg] = salt + int64(i)
	}
	return reqs
}

// hotKeys is the per-program key count of serve-hot: requests draw
// Zipf-distributed ranks over this many argument vectors per program.
const hotKeys = 8

// genHot is the serve-hot stream: a small key set under Zipf popularity,
// three requests in a hundred raw minipar source that pays the front end
// on every submission. That share puts the open loop's 99th percentile
// in the middle of the minipar fib submissions (sumsquares compiles
// faster), a population of real work.
func genHot(seed int64, samples []sample, ref *oracle, n int) []request {
	g := newGen(seed, 2)
	// Key sets: hotKeys argument vectors per program, drawn once.
	type keyset struct {
		name string
		keys []request
	}
	var sets []keyset
	add := func(name string, mk func(k int) request) {
		ks := keyset{name: name}
		for k := 0; k < hotKeys; k++ {
			r := mk(k)
			r.Shape = name
			ks.keys = append(ks.keys, r)
		}
		sets = append(sets, ks)
	}
	add("prod", func(int) request { return tpalProd(g.intn(100, 2000), g.intn(2, 999)) })
	add("pow", func(int) request { return tpalPow(g.intn(20, 300), g.intn(2, 3)) })
	add("fib", func(k int) request { return tpalFib(int64(6 + k)) })
	for _, s := range samples {
		if s.name != "sumsquares" && s.name != "fib" {
			continue // 0.1–0.45 s per compile: they would set the mix's cost
		}
		s := s
		add("mp-"+s.name, func(k int) request {
			args := s.sized(g, k%3)
			return request{Lang: "minipar", Source: s.src, Args: args, Want: ref.want(s.src, args)}
		})
	}
	// Block of 100: 97 TPAL requests, one minipar sumsquares and two
	// minipar fib; ranks are Zipf within a program, over a seeded
	// permutation of its keys.
	var block []int
	for i := 0; i < 97; i++ {
		block = append(block, i%3)
	}
	block = append(block, 3, 4, 4)
	perm := make([][]int, len(sets))
	for i := range sets {
		perm[i] = g.r.Perm(hotKeys)
	}
	z := rand.NewZipf(g.r, 1.1, 1, hotKeys-1)
	out := make([]request, 0, n)
	for len(out) < n {
		for _, k := range g.blockOrder(len(block)) {
			if len(out) == n {
				break
			}
			set := block[k]
			r := sets[set].keys[perm[set][z.Uint64()]]
			r.Tenant = fmt.Sprintf("t%02d", g.r.Intn(64))
			out = append(out, r)
		}
	}
	return out
}

// Kernel sets: the programs each serve workload's kernel phase runs on
// the machine directly. They are fixed, the same for every seed, so
// kernel_wall_ms and kernel_overhead compare like with like.

// pinnedSample gives each checked-in sample a mid-sized argument vector.
var pinnedSample = map[string]map[string]int64{
	"sumsquares":  {"n": 600},
	"fib":         {"n": 11},
	"mixed":       {"n": 400},
	"prod-pow":    {"d": 48, "e": 3},
	"triple-nest": {"n": 8},
}

func execKernels(samples []sample, ref *oracle) []request {
	out := []request{tpalProd(800, 7), tpalPow(240, 3), tpalFib(12)}
	for _, s := range samples {
		args := pinnedSample[s.name]
		out = append(out, request{Shape: "mp-" + s.name, Lang: "tpal", Source: s.tpal, Args: args, Want: ref.want(s.src, args)})
	}
	return out
}

func hotKernels(samples []sample, ref *oracle) []request {
	out := []request{tpalProd(1000, 7), tpalPow(150, 3), tpalFib(10)}
	for _, s := range samples {
		if s.name == "sumsquares" || s.name == "fib" {
			args := pinnedSample[s.name]
			out = append(out, request{Shape: "mp-" + s.name, Lang: "minipar", Source: s.src, Args: args, Want: ref.want(s.src, args)})
		}
	}
	return out
}

// admitKernels is half a block of serve-admit programs drawn with seed 0,
// less the must-reject ones, which never run. Their loop bounds are
// scaled up 16-fold (4-fold for two-level nests) so that each run takes
// milliseconds, long enough to time.
func admitKernels(_ []sample, ref *oracle) []request {
	var out []request
	for _, r := range genAdmit(0, ref, 50) {
		switch {
		case r.Want.Reject != "":
			continue
		case r.Lang == "minipar":
			k := int64(16)
			if _, nested := r.Args["m"]; nested {
				k = 4
			}
			args := map[string]int64{}
			for name, v := range r.Args {
				args[name] = v * k
			}
			r.Args, r.Want = args, ref.want(r.Source, args)
		default: // a prod variant: c = r0 + a*b
			a, b := r.Args["a"], r.Args["b"]
			r.Want.Value += 15 * a * b
			r.Args = map[string]int64{"a": 16 * a, "b": b}
		}
		out = append(out, r)
	}
	return out
}
