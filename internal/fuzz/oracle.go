package fuzz

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"fgp/internal/core"
	"fgp/internal/frontend"
	"fgp/internal/interp"
	"fgp/internal/ir"
	"fgp/internal/obs"
	"fgp/internal/outline"
	"fgp/internal/sim"
	"fgp/internal/verify"
)

// OracleConfig selects the configuration matrix one kernel is checked
// against. The zero value checks the full default matrix: cores 1..4 ×
// speculation {off, on} × normalization {as-authored, split-at-3} × engine
// {threaded, reference}, plus the metamorphic invariants.
type OracleConfig struct {
	// MaxCores bounds the core-count sweep (default 4).
	MaxCores int
	// Specs lists the speculation settings to compile (default {false, true}).
	Specs []bool
	// Norms lists NormalizeOps settings to compile (default {0, 3}).
	Norms []int
	// SkipRepeat disables the run-twice determinism invariant.
	SkipRepeat bool
	// SearchBudget, when > 0, adds the partitioner lever to the matrix: at
	// one configuration per kernel (cores = MaxCores, no speculation, no
	// normalization) the loop is recompiled with Options.Partitioner =
	// "search" under this candidate budget, and the searched artifact must
	// match the interpreter ground truth bit-exactly on every engine —
	// "verifier accepts ⇒ oracle matches" extended to searched partitions.
	SearchBudget int
	// SearchSeed seeds the search leg's annealing phase.
	SearchSeed int64
	// MutateCompiled, when set, transforms the loop fed to the compiler
	// while the interpreter keeps running the original — a deliberate
	// miscompile injection used to prove the oracle catches real
	// divergence (the mutation self-test).
	MutateCompiled func(*ir.Loop) *ir.Loop
}

func (c OracleConfig) withDefaults() OracleConfig {
	if c.MaxCores <= 0 {
		c.MaxCores = 4
	}
	if c.Specs == nil {
		c.Specs = []bool{false, true}
	}
	if c.Norms == nil {
		c.Norms = []int{0, 3}
	}
	return c
}

// Mismatch describes one oracle failure: which configuration diverged from
// the interpreter ground truth (or from a metamorphic invariant) and how.
type Mismatch struct {
	Kernel string
	Cores  int
	Spec   bool
	Norm   int
	Engine string
	Stage  string // "frontend", "compile", "verify", "run", "memory", "liveout", "invariant", "baseline"
	Detail string
}

func (m *Mismatch) Error() string {
	eng := m.Engine
	if eng == "" {
		eng = sim.EngineThreaded
	}
	return fmt.Sprintf("fuzz: %s: cores=%d spec=%v norm=%d engine=%s: %s: %s",
		m.Kernel, m.Cores, m.Spec, m.Norm, eng, m.Stage, m.Detail)
}

// roundTrip formats the loop and reparses the text, which must keep the
// wire encoding and the content address (ir.Digest); the loop decoded from
// that wire encoding must keep the address too. A non-empty return
// describes the divergence.
func roundTrip(l *ir.Loop) string {
	src := frontend.Format(l)
	l2, err := frontend.Parse([]byte(src))
	if err != nil {
		return fmt.Sprintf("formatted loop does not reparse: %v\nsource:\n%s", err, src)
	}
	b1, err := ir.MarshalLoop(l)
	if err != nil {
		return fmt.Sprintf("marshal original: %v", err)
	}
	b2, err := ir.MarshalLoop(l2)
	if err != nil {
		return fmt.Sprintf("marshal reparse: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		return fmt.Sprintf("round trip changed the wire encoding\nsource:\n%s\nwant %s\ngot  %s", src, b1, b2)
	}
	d := ir.Digest(l)
	if ir.Digest(l2) != d {
		return fmt.Sprintf("round trip changed the content address\nsource:\n%s", src)
	}
	l3, err := ir.UnmarshalLoop(b1)
	if err != nil {
		return fmt.Sprintf("unmarshal original: %v", err)
	}
	if ir.Digest(l3) != d {
		return fmt.Sprintf("wire decoding changed the content address\nwire: %s", b1)
	}
	return ""
}

// Check runs the differential oracle for one loop. It returns nil when
// every configuration in the matrix reproduces the interpreter bit-exactly
// and all metamorphic invariants hold, and a *Mismatch otherwise.
func Check(l *ir.Loop, oc OracleConfig) error {
	oc = oc.withDefaults()

	// Front-door invariant: every oracle subject must survive the
	// parse∘print round trip. frontend.Format is the IR's source-level
	// normal form; a loop that formats to text reparsing differently would
	// split the compile cache by submission route (source vs wire).
	if detail := roundTrip(l); detail != "" {
		return &Mismatch{Kernel: l.Name, Stage: "frontend", Detail: detail}
	}

	ref, rerr := interp.Run(l)
	if rerr != nil && !core.IsTrap(rerr) {
		return &Mismatch{Kernel: l.Name, Stage: "run",
			Detail: fmt.Sprintf("interpreter failed non-trap: %v", rerr)}
	}

	compiled := l
	if oc.MutateCompiled != nil {
		compiled = oc.MutateCompiled(l)
	}

	for _, norm := range oc.Norms {
		for _, spec := range oc.Specs {
			// The profile depends on the loop and pre-lowering transforms,
			// not the core count: measure once, reuse across the sweep.
			popt := core.DefaultOptions(1)
			popt.Speculate = spec
			popt.NormalizeOps = norm
			prof, profCycles, perr := core.ComputeProfile(context.Background(), compiled, popt)
			if perr != nil {
				// A trapping kernel traps during profiling too — that is the
				// expected outcome, not a mismatch; compile without profile
				// feedback and still require every simulation to trap.
				if rerr == nil || !core.IsTrap(perr) {
					return &Mismatch{Kernel: l.Name, Cores: 1, Spec: spec, Norm: norm,
						Stage: "compile", Detail: fmt.Sprintf("profiling run: %v", perr)}
				}
				prof = nil
			}
			for cores := 1; cores <= oc.MaxCores; cores++ {
				opt := core.DefaultOptions(cores)
				opt.Speculate = spec
				opt.NormalizeOps = norm
				if prof != nil {
					opt.Profile = prof
				} else {
					opt.UseProfile = false
				}
				art, cerr := core.Compile(compiled, opt)
				if cerr != nil {
					// A static-verifier rejection gets its own stage so
					// shrink reports show the structured diagnostics rather
					// than a generic compile failure.
					stage := "compile"
					var ve *verify.Error
					if errors.As(cerr, &ve) {
						stage = "verify"
					}
					return &Mismatch{Kernel: l.Name, Cores: cores, Spec: spec, Norm: norm,
						Stage: stage, Detail: cerr.Error()}
				}
				thrRes, refRes, refRec, m := checkEngines(l, art, ref, rerr)
				if m != nil {
					m.Cores, m.Spec, m.Norm = cores, spec, norm
					return m
				}
				// Invariant: the per-cause stall windows of the recorded
				// event stream sum exactly to the aggregate queue-stall
				// counters.
				if refRec != nil {
					if m := checkStalls(l.Name, refRes, refRec); m != nil {
						m.Cores, m.Spec, m.Norm, m.Engine = cores, spec, norm, sim.EngineReference
						return m
					}
				}
				// Invariant: one core needs no communication at all.
				if cores == 1 && thrRes != nil && (thrRes.Transfers != 0 || thrRes.QueuesUsed != 0) {
					return &Mismatch{Kernel: l.Name, Cores: cores, Spec: spec, Norm: norm,
						Stage:  "invariant",
						Detail: fmt.Sprintf("queue traffic on 1 core: transfers=%d queues=%d", thrRes.Transfers, thrRes.QueuesUsed)}
				}
				// Invariant: the profiling run is the sequential baseline the
				// experiments Runner serves, so it takes the one-core cycles.
				if cores == 1 && prof != nil && thrRes != nil && thrRes.Cycles != profCycles {
					return &Mismatch{Kernel: l.Name, Cores: cores, Spec: spec, Norm: norm,
						Engine: sim.EngineThreaded, Stage: "baseline",
						Detail: fmt.Sprintf("profiling run took %d cycles, the one-core artifact %d", profCycles, thrRes.Cycles)}
				}
				// Partitioner lever: recompile with the simulator-guided
				// partition search and hold the searched artifact to the same
				// oracle — bit-identical memory and live-outs vs the
				// interpreter on every engine, engines bit-identical to each
				// other, and the searched partition never worse than the
				// heuristic seed it started from.
				if oc.SearchBudget > 0 && cores == oc.MaxCores && cores > 1 && !spec && norm == 0 {
					if m := checkSearch(l, compiled, ref, rerr, opt, oc); m != nil {
						m.Cores, m.Spec, m.Norm = cores, spec, norm
						return m
					}
				}
				// Invariant: repeat runs on the default engine are
				// cycle-deterministic (its translation cache makes the second
				// run take the warm path). One configuration per kernel keeps
				// the cost bounded.
				if !oc.SkipRepeat && cores == oc.MaxCores && !spec && norm == 0 && thrRes != nil {
					res2, _, m := checkRun(l, art, ref, rerr, sim.EngineThreaded)
					if m != nil {
						m.Cores, m.Spec, m.Norm, m.Engine = cores, spec, norm, sim.EngineThreaded
						m.Stage = "invariant"
						m.Detail = "repeat run: " + m.Detail
						return m
					}
					if res2.Cycles != thrRes.Cycles || res2.Transfers != thrRes.Transfers {
						return &Mismatch{Kernel: l.Name, Cores: cores, Spec: spec, Norm: norm,
							Engine: sim.EngineThreaded, Stage: "invariant",
							Detail: fmt.Sprintf("nondeterministic repeat: cycles %d then %d", thrRes.Cycles, res2.Cycles)}
					}
				}
			}
		}
	}
	return nil
}

// checkSearch runs the search-partitioner oracle leg: compile with
// Options.Partitioner = "search", then require the searched artifact to
// reproduce the interpreter ground truth on every engine, all engines to
// agree with the reference bit for bit, and the search's own never-worse
// contract to hold. The returned Mismatch (nil = pass) has Cores/Spec/Norm
// filled in by the caller.
func checkSearch(l *ir.Loop, compiled *ir.Loop, ref *interp.Result, rerr error, opt core.Options, oc OracleConfig) *Mismatch {
	opt.Partitioner = core.PartitionerSearch
	opt.SearchBudget = oc.SearchBudget
	opt.SearchSeed = oc.SearchSeed
	opt.SearchWorkers = 1 // fgpfuzz runs the oracle from a pool of its own
	art, cerr := core.Compile(compiled, opt)
	if cerr != nil {
		stage := "compile"
		var ve *verify.Error
		if errors.As(cerr, &ve) {
			stage = "verify"
		}
		return &Mismatch{Kernel: l.Name, Stage: stage,
			Detail: "search partitioner: " + cerr.Error()}
	}
	if art.Report.SearchCycles > art.Report.SearchBaselineCycles {
		return &Mismatch{Kernel: l.Name, Stage: "invariant",
			Detail: fmt.Sprintf("search partitioner worse than heuristic: %d > %d cycles",
				art.Report.SearchCycles, art.Report.SearchBaselineCycles)}
	}
	if _, _, _, m := checkEngines(l, art, ref, rerr); m != nil {
		m.Detail = "search partitioner: " + m.Detail
		return m
	}
	return nil
}

// checkEngines runs the artifact on every engine through checkRun and
// requires the threaded engine's result to be bit-identical to the
// reference scheduler's: full counter equality, not just the headline
// cycle count, so relaxed-order scheduling cannot hide behind matching
// totals. It returns both results (nil when the interpreter trapped) and
// the reference run's recording, or a *Mismatch naming the engine.
func checkEngines(l *ir.Loop, art *core.Artifact, ref *interp.Result, rerr error) (thr, refRes *sim.Result, rec *obs.Recorder, m *Mismatch) {
	for _, eng := range sim.Engines() {
		res, r, bad := checkRun(l, art, ref, rerr, eng)
		if bad != nil {
			bad.Engine = eng
			return nil, nil, nil, bad
		}
		switch eng {
		case sim.EngineThreaded:
			thr = res
		case sim.EngineReference:
			refRes, rec = res, r
		}
	}
	if thr != nil && refRes != nil {
		if d := diffResults(thr, refRes); d != "" {
			return nil, nil, nil, &Mismatch{Kernel: l.Name, Engine: sim.EngineThreaded, Stage: "invariant",
				Detail: "diverges from reference: " + d}
		}
	}
	return thr, refRes, rec, nil
}

// checkStalls enforces the observability invariant on one kernel's
// recording: per-cause stall-window sums equal the aggregate EnqStalls and
// DeqStalls counters (the metamorphic link between the typed stream and
// the counters both engines already agree on).
func checkStalls(kernel string, res *sim.Result, rec *obs.Recorder) *Mismatch {
	sums := obs.SumStalls(rec.Events)
	var enq, deq int64
	for i := range res.EnqStalls {
		enq += res.EnqStalls[i]
		deq += res.DeqStalls[i]
	}
	if sums[obs.CauseEnqFull] != enq {
		return &Mismatch{Kernel: kernel, Stage: "invariant",
			Detail: fmt.Sprintf("enq-full stall windows sum to %d, EnqStalls total %d", sums[obs.CauseEnqFull], enq)}
	}
	if sums[obs.CauseDeqEmpty] != deq {
		return &Mismatch{Kernel: kernel, Stage: "invariant",
			Detail: fmt.Sprintf("deq-empty stall windows sum to %d, DeqStalls total %d", sums[obs.CauseDeqEmpty], deq)}
	}
	return nil
}

// diffResults compares every deterministic counter of two engine results
// and describes the first divergence ("" when bit-identical). LiveOut and
// the memory image are checked against the interpreter separately; this is
// the engine-vs-engine half of the oracle.
func diffResults(got, want *sim.Result) string {
	if got.Cycles != want.Cycles {
		return fmt.Sprintf("cycles %d != %d", got.Cycles, want.Cycles)
	}
	if got.Transfers != want.Transfers {
		return fmt.Sprintf("transfers %d != %d", got.Transfers, want.Transfers)
	}
	if got.QueuesUsed != want.QueuesUsed || got.PairsUsed != want.PairsUsed {
		return fmt.Sprintf("queues/pairs %d/%d != %d/%d", got.QueuesUsed, got.PairsUsed, want.QueuesUsed, want.PairsUsed)
	}
	if got.LoadHits != want.LoadHits || got.LoadMisses != want.LoadMisses {
		return fmt.Sprintf("load hits/misses %d/%d != %d/%d", got.LoadHits, got.LoadMisses, want.LoadHits, want.LoadMisses)
	}
	if got.MemPortBusyCycles != want.MemPortBusyCycles {
		return fmt.Sprintf("port busy cycles %d != %d", got.MemPortBusyCycles, want.MemPortBusyCycles)
	}
	for _, v := range []struct {
		name      string
		got, want []int64
	}{
		{"per-core cycles", got.PerCoreCycles, want.PerCoreCycles},
		{"per-core instrs", got.PerCoreInstrs, want.PerCoreInstrs},
		{"enq stalls", got.EnqStalls, want.EnqStalls},
		{"deq stalls", got.DeqStalls, want.DeqStalls},
	} {
		if len(v.got) != len(v.want) {
			return fmt.Sprintf("%s length %d != %d", v.name, len(v.got), len(v.want))
		}
		for i := range v.got {
			if v.got[i] != v.want[i] {
				return fmt.Sprintf("%s[%d] %d != %d", v.name, i, v.got[i], v.want[i])
			}
		}
	}
	return ""
}

// checkRun simulates the artifact on one engine and compares the final
// memory image and live-outs against the interpreter result with
// core.CheckOutcome. When the interpreter trapped (rerr != nil), the
// simulation must also trap and the value comparison is skipped.
//
// Only the reference leg records the event stream: a recorded threaded run
// goes to the reference scheduler by construction, which would leave the
// fused-block runtime unexercised, so the threaded leg runs unrecorded and
// its recorder is nil.
func checkRun(src *ir.Loop, art *core.Artifact, ref *interp.Result, rerr error, engine string) (*sim.Result, *obs.Recorder, *Mismatch) {
	cfg := art.MachineConfig()
	cfg.DebugEdges = true
	cfg.Engine = engine
	var rec *obs.Recorder
	if engine == sim.EngineReference {
		rec = obs.NewRecorder()
		cfg.Sink = rec
	}
	img := outline.BuildMemory(art.Loop)
	m, err := sim.New(art.Compiled.Programs, img, cfg)
	if err != nil {
		return nil, nil, &Mismatch{Kernel: src.Name, Stage: "run", Detail: err.Error()}
	}
	res, err := m.Run()
	if rerr != nil {
		// Ground truth trapped: the compiled code must trap too.
		if err == nil {
			return nil, nil, &Mismatch{Kernel: src.Name, Stage: "run",
				Detail: fmt.Sprintf("interpreter trapped (%v) but simulation completed", rerr)}
		}
		if !core.IsTrap(err) {
			return nil, nil, &Mismatch{Kernel: src.Name, Stage: "run",
				Detail: fmt.Sprintf("interpreter trapped (%v) but simulation failed differently: %v", rerr, err)}
		}
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, &Mismatch{Kernel: src.Name, Stage: "run", Detail: err.Error()}
	}
	if err := core.CheckOutcome(src, img, res.LiveOut, ref, true); err != nil {
		stage := "memory"
		if err.(*core.Divergence).LiveOut {
			stage = "liveout"
		}
		return nil, nil, &Mismatch{Kernel: src.Name, Stage: stage, Detail: err.Error()}
	}
	return res, rec, nil
}

// InjectMiscompile returns a copy of the loop with the first additive
// binary operator flipped (add<->sub) — a minimal, observable miscompile.
// ok is false when the loop has no eligible operator. The fuzz self-test
// feeds the result to OracleConfig.MutateCompiled to prove a real
// divergence is caught and minimized.
func InjectMiscompile(l *ir.Loop) (out *ir.Loop, ok bool) {
	c := l.Clone()
	flipped := false
	var flipExpr func(e ir.Expr) ir.Expr
	flipExpr = func(e ir.Expr) ir.Expr {
		if flipped {
			return e
		}
		switch x := e.(type) {
		case *ir.Bin:
			if x.Op == ir.Add || x.Op == ir.Sub {
				flipped = true
				op := ir.Add
				if x.Op == ir.Add {
					op = ir.Sub
				}
				return &ir.Bin{Op: op, L: x.L, R: x.R}
			}
			nl := flipExpr(x.L)
			nr := flipExpr(x.R)
			if nl != x.L || nr != x.R {
				return &ir.Bin{Op: x.Op, L: nl, R: nr}
			}
		case *ir.Un:
			nx := flipExpr(x.X)
			if nx != x.X {
				return &ir.Un{Op: x.Op, X: nx}
			}
		}
		return e
	}
	var flipStmts func(stmts []ir.Stmt) []ir.Stmt
	flipStmts = func(stmts []ir.Stmt) []ir.Stmt {
		out := make([]ir.Stmt, len(stmts))
		for i, s := range stmts {
			if flipped {
				out[i] = s
				continue
			}
			switch x := s.(type) {
			case *ir.Assign:
				out[i] = &ir.Assign{Src: x.Src, Dest: x.Dest, X: flipExpr(x.X)}
			case *ir.If:
				out[i] = &ir.If{Src: x.Src, Cond: x.Cond,
					Then: flipStmts(x.Then), Else: flipStmts(x.Else)}
			default:
				out[i] = s
			}
		}
		return out
	}
	c.Body = flipStmts(c.Body)
	return c, flipped
}
