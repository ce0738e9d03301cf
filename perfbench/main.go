// Command perfbench is the repository benchmark. It runs one named,
// seeded workload against the public functions of the repository's
// layers, checks every output against an independent reference, and
// prints its metrics by name and unit; the last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics.
//
//	perfbench -workload serve-exec -seed 1 -seconds 38 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 the run records spans around every layer call
// and reports the per-layer metrics instead; the spans are written as
// JSON lines under -out. NOTES.md describes the workloads and metrics;
// run.sh builds and runs the command from a checkout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// opts are one run's settings.
type opts struct {
	seed    int64
	seconds float64
	repo    string // repository root, for the checked-in minipar samples
}

// phases splits the timed phase: openFrac of it for the open loop, the
// rest 5:3 between the closed loop and the kernel phase. It returns the
// three lengths in seconds.
func (o opts) phases(openFrac float64) (open, closed, kernel float64) {
	rest := o.seconds * (1 - openFrac)
	return o.seconds * openFrac, rest * 5 / 8, rest * 3 / 8
}

// workloads are the benchmark's traffic mixes (NOTES.md says why each
// exists).
var workloads = map[string]*serveWorkload{
	"serve-exec": {rate: 90, block: 41, openFrac: 0.65, window: 8, closedCap: 2000, warm: "programs", lower: true, fill: true,
		gen: genExec, kernel: execKernels},
	"serve-hot": {rate: 150, block: 100, openFrac: 0.65, window: 8, closedCap: 6000, warm: "keys",
		gen: genHot, kernel: hotKernels},
	"serve-admit": {rate: 70, block: 100, openFrac: 0.7, window: 4, closedCap: 800,
		gen:    func(seed int64, _ []sample, ref *oracle, n int) []request { return genAdmit(seed, ref, n) },
		kernel: admitKernels},
}

const rtKernels = "rt-kernels"

func workloadNames() []string {
	return append(sortedKeys(workloads), rtKernels)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 38, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	repo := fs.String("repo", ".", "repository root")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := opts{seed: *seed, seconds: *seconds, repo: *repo}
	w, isServe := workloads[*name]
	if !isServe && *name != rtKernels {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	var res *result
	var rec *recorder
	var err error
	switch {
	case *traced == 0 && isServe:
		res, err = w.run(o)
	case *traced == 0:
		res, err = runKernels(o)
	case isServe:
		res, rec, err = w.runTraced(o)
	default:
		res, rec, err = runKernelsTraced(o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	catalog := endToEnd
	var shareLines []string
	if rec != nil {
		catalog = perLayer()
		self := rec.selfTimes()
		for _, s := range spanNames {
			res.values[s+".self_ms"] = self[s]
		}
		res.values["workload.fail_frac"] = res.failFrac()
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
		rec.printByShape(stdout)
	} else {
		shareLines = shareNames
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %g s\n", *name, *seed, *seconds)
	if err := res.report(stdout, catalog, shareLines); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: first failure: %v\n", res.firstErr)
	}
	if res.wrong > 0 {
		return 1
	}
	return 0
}

func isSelfTime(name string) bool { return strings.HasSuffix(name, ".self_ms") }
