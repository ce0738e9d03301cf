package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"tpal/internal/serve"
)

// requestBytes renders a workload's first n generated requests (for
// rt-kernels, its kernel-run order) the way they reach the program.
func requestBytes(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	if name == rtKernels {
		b, err := json.Marshal(kernelOrder(seed, n))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	w := workloads[name]
	samples, err := loadSamples("..", w.lower)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range w.gen(seed, samples, newOracle(), n) {
		if err := enc.Encode(r.submit()); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(r.Want); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSameSeedSameRequests pins determinism: the same seed yields a
// byte-identical request sequence for every workload, and another seed
// a different one.
func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames() {
		a := requestBytes(t, name, 7, 300)
		b := requestBytes(t, name, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if bytes.Equal(a, requestBytes(t, name, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

// TestBlocksHoldTheSameMix pins each serve workload's block length:
// every aligned block of its stream holds the same multiset of shapes,
// which the closed-loop segments, each starting on a block, rely on.
func TestBlocksHoldTheSameMix(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		w := workloads[name]
		samples, err := loadSamples("..", w.lower)
		if err != nil {
			t.Fatal(err)
		}
		const blocks = 4
		reqs := w.gen(3, samples, newOracle(), blocks*w.block)
		var first string
		for b := 0; b < blocks; b++ {
			var shapes []string
			for _, r := range reqs[b*w.block : (b+1)*w.block] {
				shapes = append(shapes, r.Shape)
			}
			sort.Strings(shapes)
			if mix := strings.Join(shapes, ","); b == 0 {
				first = mix
			} else if mix != first {
				t.Errorf("%s: block %d of %d requests holds another mix than block 0", name, b, w.block)
			}
		}
	}
}

// TestWrongExpectedValueCaught feeds the checks deliberately wrong
// outcomes through the load generator's own submit-and-settle path: a
// wrong expected value, a wrong rejection code, a program that faults on
// the machine, a request Submit refuses as bad, and a wrong direct
// machine run. Each must count as a wrong answer and make the run
// incorrect. A job cut off by its budget and a full queue are load
// shedding: they fail without being wrong.
func TestWrongExpectedValueCaught(t *testing.T) {
	svc := serve.New(serve.Config{})
	defer drain(svc)

	good := tpalProd(12, 5)
	bad := good
	bad.Want.Value++
	race := newGen(1, 0).racyTPAL(42)
	wrongCode := race
	wrongCode.Want.Reject = "TP090"
	fault := request{Lang: "tpal", Source: "program faults entry start\n\nblock start [.] {\n  q := a / d\n  halt\n}\n",
		Args: map[string]int64{"a": 7, "d": 0}, Want: want{Reg: "q", Value: 7}}
	refused := request{Lang: "tpal", Source: "not a program", Args: map[string]int64{}, Want: want{Reg: "q"}}
	budget := tpalProd(5000, 5)

	res := newResult()
	for i, r := range []request{good, bad, race, wrongCode, fault, refused, budget} {
		sub := r.submit()
		if i == 6 {
			sub.Fuel = 10
		}
		s := sent{req: &r, start: time.Now()}
		j, err := svc.Submit(sub)
		if err != nil {
			s.err = submitErr(err)
		} else {
			s.settle(j, nil)
		}
		res.note(s.err)
	}
	res.note(submitErr(serve.ErrQueueFull))
	ks, err := prepareKernels([]request{bad})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ks[0].run(serveHeartbeat)
	res.note(err)

	if res.attempted != 9 || res.failed != 7 || res.wrong != 5 {
		t.Fatalf("attempted %d failed %d wrong %d, want 9, 7, 5 (first error: %v)",
			res.attempted, res.failed, res.wrong, res.firstErr)
	}
	for _, m := range endToEnd {
		res.values[m.name] = 1
	}
	var out bytes.Buffer
	if err := res.report(&out, endToEnd, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct {
		t.Fatalf("last line %q: want correct=false (%v)", lines[len(lines)-1], err)
	}
}

// ungated are the workloads BENCHMARK.json leaves out. They run and
// print every metric, but on the development machine their spreads went
// past the bounds (NOTES.md, Steadiness).
var ungated = map[string]bool{"serve-exec": true}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalog in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, gated []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloadNames() {
		if !ungated[w] {
			gated = append(gated, w)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(gated, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, catalog %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalog %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}
