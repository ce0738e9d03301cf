package main

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"tpal/internal/minipar"
	"tpal/internal/serve"
)

// oracle computes minipar references with minipar.Interpret, the
// sequential reference semantics, never with the machine under test.
// Results are memoized per (source, parameter values).
type oracle struct {
	mu    sync.Mutex
	progs map[string]*minipar.Program
	memo  map[string]int64
}

func newOracle() *oracle {
	return &oracle{progs: map[string]*minipar.Program{}, memo: map[string]int64{}}
}

// want returns the expected result register of a minipar program run on
// args. Arguments that are not parameters (the salt) are ignored. A
// source that fails to parse or interpret is a generator bug.
func (o *oracle) want(src string, args map[string]int64) want {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, ok := o.progs[src]
	if !ok {
		var err error
		if p, err = minipar.Parse(src); err != nil {
			panic(fmt.Sprintf("perfbench: generated minipar does not parse: %v\n%s", err, src))
		}
		o.progs[src] = p
	}
	argv := make([]int64, len(p.Params))
	key := src
	for i, name := range p.Params {
		argv[i] = args[name]
		key += fmt.Sprintf("|%d", argv[i])
	}
	v, ok := o.memo[key]
	if !ok {
		var err error
		if v, err = minipar.Interpret(p, argv); err != nil {
			panic(fmt.Sprintf("perfbench: reference interpreter failed: %v\n%s", err, src))
		}
		o.memo[key] = v
	}
	return want{Reg: "result", Value: v}
}

// errShed marks the outcomes a loaded service may give a correct
// request without being wrong: a refusal (queue full, draining) and a
// job cut off by its budget or its timeout. Every other failure, a
// fault, a cancellation, a refused valid request, a wrong value or a
// wrong verdict, is a wrong answer and makes the run incorrect.
var errShed = errors.New("shed")

// isWrong reports whether a checked outcome is a wrong answer.
func isWrong(err error) bool { return err != nil && !errors.Is(err, errShed) }

// submitErr classifies a Submit error.
func submitErr(err error) error {
	if errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrDraining) {
		return fmt.Errorf("%w: submit: %w", errShed, err)
	}
	return fmt.Errorf("wrong answer: submit: %w", err)
}

// checkJob compares a terminal job with its request's expectation and
// returns an error for any outcome but the expected one.
func checkJob(w want, j *serve.Job) error {
	if w.Reject != "" {
		if j.Status != serve.StatusRejected {
			return fmt.Errorf("wrong answer: job %s: status %s, want rejection %s", j.ID, j.Status, w.Reject)
		}
		for _, d := range j.Diags {
			if d.Code == w.Reject {
				return nil
			}
		}
		return fmt.Errorf("wrong answer: job %s: rejected without %s", j.ID, w.Reject)
	}
	switch j.Status {
	case serve.StatusDone:
		return checkValue(w, j.Result[w.Reg])
	case serve.StatusBudget, serve.StatusTimeout:
		return fmt.Errorf("%w: job %s: status %s (%s)", errShed, j.ID, j.Status, j.Error)
	}
	return fmt.Errorf("wrong answer: job %s: status %s (%s), want %s = %d", j.ID, j.Status, j.Error, w.Reg, w.Value)
}

// checkValue compares one rendered register with the expectation.
func checkValue(w want, got string) error {
	if got != strconv.FormatInt(w.Value, 10) {
		return fmt.Errorf("wrong answer: register %s = %q, want %d", w.Reg, got, w.Value)
	}
	return nil
}
