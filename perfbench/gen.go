package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"slices"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/sim"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// genConfig parameterises one generated input set. Every trace is a pure
// function of (genConfig, seed): the same seed gives byte-identical traces.
type genConfig struct {
	Sessions int // traces in the set
	MinTasks int // tasks per SPMD program, drawn from [MinTasks, MaxTasks]
	MaxTasks int
	Iters    int // barrier episodes per task (trace length)
	// Deadlocks is how many SPMD programs of the set split at one barrier
	// episode: half the team waits on one phaser, half on another, and
	// the program deadlocks there.
	Deadlocks int
	// Sims is how many traces of the set come from internal/sim programs
	// instead, restricted to those whose detection replay deadlocks (in
	// an avoidance session their closing gate is refused).
	Sims int
	Mode core.Mode // mode byte written to the trace header
	// Pipelines are the replay pipelines every trace must pass, verdict
	// for verdict, before it is used.
	Pipelines []replay.Pipeline
}

// input is one generated trace with the expectations computed for it in
// process during set-up.
type input struct {
	tr        *trace.Trace
	expected  []bool // replay.Detect per-mutation verdicts
	firstDead int    // index of the first deadlocked verdict, -1 if none
	mutations int
}

// inputSet is a generated, validated input set.
type inputSet struct {
	inputs []*input
	events int    // total events over the set
	hash   string // sha256 over the encoded traces
}

// generate builds cfg's input set from seed and validates every trace with
// replay.VerifyAll over cfg.Pipelines (verdict for verdict) before it is
// used, so an invalid input fails the run instead of being measured.
func generate(cfg genConfig, seed uint64) (*inputSet, error) {
	set := &inputSet{}
	h := sha256.New()
	var buf bytes.Buffer
	simSeed := seed << 20
	// A seeded permutation places the fixed numbers of sim and deadlocking
	// programs, so every seed gives the same mix.
	kind := rand.New(rand.NewPCG(seed, 0)).Perm(cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		rng := rand.New(rand.NewPCG(seed, uint64(i)+1))
		var tr *trace.Trace
		if kind[i] < cfg.Sims {
			var err error
			tr, simSeed, err = deadlockingSim(simSeed)
			if err != nil {
				return nil, err
			}
		} else {
			n := cfg.MinTasks + rng.IntN(cfg.MaxTasks-cfg.MinTasks+1)
			tr = spmd(rng, n, cfg.Iters, kind[i] < cfg.Sims+cfg.Deadlocks)
		}
		tr.Label = fmt.Sprintf("perfbench seed=%d input=%d", seed, i)
		tr.Mode = uint8(cfg.Mode)
		buf.Reset()
		if err := trace.Encode(&buf, tr); err != nil {
			return nil, fmt.Errorf("encode input %d: %w", i, err)
		}
		h.Write(buf.Bytes())
		res, err := replay.VerifyAll(tr, replay.Options{Sites: 2}, cfg.Pipelines...)
		if err != nil {
			return nil, fmt.Errorf("input %d fails replay.VerifyAll: %w", i, err)
		}
		det := res[slices.Index(cfg.Pipelines, replay.Detect)]
		in := &input{tr: tr, expected: det.Verdicts, firstDead: -1, mutations: det.Mutations}
		for j, v := range det.Verdicts {
			if v {
				in.firstDead = j
				break
			}
		}
		set.inputs = append(set.inputs, in)
		set.events += len(tr.Events)
	}
	set.hash = hex.EncodeToString(h.Sum(nil))
	return set, nil
}

// phasers is how many barriers every task of a generated SPMD program is
// registered on.
const phasers = 3

// spmd generates the trace of an SPMD barrier program: n tasks, all
// registered on every one of the phasers, execute the same seeded sequence
// of iters barrier episodes (arrive, then wait for the phase to complete),
// interleaved by a seeded scheduler. With deadlock set, the team splits at
// one episode — half waits on the next phaser instead — and the trace ends
// with the tasks stuck in that cross-phaser cycle.
func spmd(rng *rand.Rand, n, iters int, deadlock bool) *trace.Trace {
	p := phasers
	seq := make([]int, iters)
	for i := range seq {
		seq[i] = rng.IntN(p)
	}
	split, splitGroup := -1, make([]bool, n)
	if deadlock && n >= 2 && p >= 2 {
		split = iters/4 + rng.IntN(iters/2+1)
		for _, t := range rng.Perm(n)[:n/2] {
			splitGroup[t] = true
		}
	}
	phaser := func(t, episode int) int {
		if episode == split && splitGroup[t] {
			return (seq[episode] + 1) % p
		}
		return seq[episode]
	}
	episodes := iters
	if split >= 0 {
		episodes = split + 1
	}
	task := func(t int) deps.TaskID { return deps.TaskID(t + 1) }
	ph := func(q int) deps.PhaserID { return deps.PhaserID(q + 1) }

	tr := &trace.Trace{}
	emit := func(e trace.Event) { tr.Events = append(tr.Events, e) }
	local := make([][]int64, n)
	for t := range local {
		local[t] = make([]int64, p)
		for q := 0; q < p; q++ {
			emit(trace.Event{Kind: trace.KindRegister, Task: task(t), Phaser: ph(q), Mode: uint8(core.SigWait)})
		}
	}
	satisfied := func(q int, target int64) bool {
		for t := range local {
			if local[t][q] < target {
				return false
			}
		}
		return true
	}
	pc := make([]int, n)
	waitQ, waitPhase := make([]int, n), make([]int64, n)
	blocked := make([]bool, n)
	runnable := make([]int, 0, n)
	for {
		runnable = runnable[:0]
		for t := 0; t < n; t++ {
			if blocked[t] {
				if satisfied(waitQ[t], waitPhase[t]) {
					runnable = append(runnable, t)
				}
			} else if pc[t] < episodes {
				runnable = append(runnable, t)
			}
		}
		if len(runnable) == 0 {
			return tr
		}
		t := runnable[rng.IntN(len(runnable))]
		if blocked[t] {
			blocked[t] = false
			emit(trace.Event{Kind: trace.KindUnblock, Task: task(t)})
			continue
		}
		q := phaser(t, pc[t])
		pc[t]++
		local[t][q]++
		emit(trace.Event{Kind: trace.KindArrive, Task: task(t), Phaser: ph(q), Phase: local[t][q]})
		if satisfied(q, local[t][q]) {
			continue // last to arrive: the phase is complete, no wait
		}
		st := deps.Blocked{Task: task(t), WaitsFor: []deps.Resource{{Phaser: ph(q), Phase: local[t][q]}}}
		for r := 0; r < p; r++ {
			st.Regs = append(st.Regs, deps.Reg{Phaser: ph(r), Phase: local[t][r]})
		}
		blocked[t], waitQ[t], waitPhase[t] = true, q, local[t][q]
		emit(trace.Event{Kind: trace.KindBlock, Task: task(t), Status: st})
	}
}

// deadlockingSim returns the trace of the first internal/sim program at or
// after seed whose detection replay deadlocks, and the seed to continue
// from. Recorded verdict events are dropped: they are the recording
// verifier's outputs, not inputs. The inputs must be byte-identical per
// seed, so two recording orders are made canonical: registration vectors,
// which the recorder writes in map order, are sorted by phaser, and each
// run of consecutive unblocks, which the woken task goroutines record in
// the order they happen to run, is sorted by task. Unblocks only remove
// blocked statuses, so every order of such a run is a valid trace.
func deadlockingSim(seed uint64) (*trace.Trace, uint64, error) {
	for tries := 0; tries < 1000; tries++ {
		r, err := sim.Run(sim.Config{Seed: seed, Tasks: 5, Phasers: 3, Ops: 12}, sim.RunDetect)
		seed++
		if err != nil {
			return nil, seed, fmt.Errorf("sim seed %d: %w", seed-1, err)
		}
		if !r.Deadlocked {
			continue
		}
		tr := &trace.Trace{}
		for _, e := range r.Trace.Events {
			if e.Kind == trace.KindVerdict {
				continue
			}
			slices.SortFunc(e.Status.Regs, func(a, b deps.Reg) int { return cmp.Compare(a.Phaser, b.Phaser) })
			tr.Events = append(tr.Events, e)
		}
		for i := 0; i < len(tr.Events); {
			j := i
			for j < len(tr.Events) && tr.Events[j].Kind == trace.KindUnblock {
				j++
			}
			slices.SortFunc(tr.Events[i:j], func(a, b trace.Event) int { return cmp.Compare(a.Task, b.Task) })
			i = max(j, i+1)
		}
		return tr, seed, nil
	}
	return nil, seed, fmt.Errorf("no deadlocking sim program in 1000 seeds from %d", seed)
}
