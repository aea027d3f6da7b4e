package verify_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"fgp/internal/core"
	"fgp/internal/frontend"
	"fgp/internal/fuzz"
	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
	"fgp/internal/verify"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostics from the current verifier")

const goldenDiagnostics = "testdata/golden_diagnostics.txt"

// goldenSeeds is the number of generated loops in the golden corpus.
const goldenSeeds = 150

// splitmix is a tiny deterministic generator, so the mutation sites do not
// depend on any library's random stream.
type splitmix uint64

func (s *splitmix) intn(n int) int {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// site is one instruction of a program set.
type site struct{ core, pc int }

func sitesWhere(in verify.Input, pred func(pc int, p *isa.Program) bool) []site {
	var out []site
	for ci, p := range in.Programs {
		for pc := range p.Instrs {
			if pred(pc, p) {
				out = append(out, site{ci, pc})
			}
		}
	}
	return out
}

func isComm(ins *isa.Instr) bool { return ins.Op == isa.Enq || ins.Op == isa.Deq }

// mutation rewrites a copy of a program set at a site rng picks. It returns
// a label naming the site, or "" when the set has no site to mutate.
type mutation struct {
	name  string
	apply func(in *verify.Input, rng *splitmix) string
}

var mutations = []mutation{
	{"nop", func(in *verify.Input, rng *splitmix) string {
		s := sitesWhere(*in, func(pc int, p *isa.Program) bool { return isComm(&p.Instrs[pc]) })
		if len(s) == 0 {
			return ""
		}
		x := s[rng.intn(len(s))]
		nopOut(&in.Programs[x.core].Instrs[x.pc])
		return fmt.Sprintf("core=%d pc=%d", x.core, x.pc)
	}},
	{"edge+1", func(in *verify.Input, rng *splitmix) string {
		s := sitesWhere(*in, func(pc int, p *isa.Program) bool { return isComm(&p.Instrs[pc]) })
		if len(s) == 0 {
			return ""
		}
		x := s[rng.intn(len(s))]
		in.Programs[x.core].Instrs[x.pc].Edge++
		return fmt.Sprintf("core=%d pc=%d", x.core, x.pc)
	}},
	{"swap", func(in *verify.Input, rng *splitmix) string {
		s := sitesWhere(*in, func(pc int, p *isa.Program) bool {
			return isComm(&p.Instrs[pc]) && pc+1 < len(p.Instrs)
		})
		if len(s) == 0 {
			return ""
		}
		x := s[rng.intn(len(s))]
		ins := in.Programs[x.core].Instrs
		ins[x.pc], ins[x.pc+1] = ins[x.pc+1], ins[x.pc]
		return fmt.Sprintf("core=%d pc=%d", x.core, x.pc)
	}},
	{"bin-operand", func(in *verify.Input, rng *splitmix) string {
		s := sitesWhere(*in, func(pc int, p *isa.Program) bool {
			return p.Instrs[pc].Op == isa.Bin && p.NRegs > 1
		})
		if len(s) == 0 {
			return ""
		}
		x := s[rng.intn(len(s))]
		p := in.Programs[x.core]
		ins := &p.Instrs[x.pc]
		op, name := &ins.A, "a"
		if rng.intn(2) == 1 {
			op, name = &ins.B, "b"
		}
		*op = isa.Reg((int(*op) + 1 + rng.intn(p.NRegs-1)) % p.NRegs)
		return fmt.Sprintf("core=%d pc=%d %s=r%d", x.core, x.pc, name, *op)
	}},
	{"queuelen=1", func(in *verify.Input, _ *splitmix) string {
		in.QueueLen = 1
		return "all"
	}},
}

// goldenLoops is the golden corpus: the tier-1 kernels, the tier-2 kernels,
// goldenSeeds generated loops and testdata/far_carried.fgp, whose carried
// dependence lies beyond the abstract horizon.
func goldenLoops(tb testing.TB) []*ir.Loop {
	tb.Helper()
	var loops []*ir.Loop
	for _, k := range kernels.All() {
		loops = append(loops, k.Build())
	}
	t2, err := tier2.All()
	if err != nil {
		tb.Fatal(err)
	}
	for _, k := range t2 {
		l, err := k.Build()
		if err != nil {
			tb.Fatal(err)
		}
		loops = append(loops, l)
	}
	for seed := range uint64(goldenSeeds) {
		l := fuzz.Generate(seed, fuzz.GenConfig{MaxStmts: 24, MaxDepth: 4})
		l.Name = fmt.Sprintf("gen-%d", seed)
		loops = append(loops, l)
	}
	src, err := os.ReadFile("testdata/far_carried.fgp")
	if err != nil {
		tb.Fatal(err)
	}
	l, err := frontend.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	return append(loops, l)
}

// diagLine renders one case: "ok", or the count and every diagnostic.
func diagLine(err error) string {
	if err == nil {
		return "ok"
	}
	var ve *verify.Error
	if !errors.As(err, &ve) {
		return "error: " + err.Error()
	}
	parts := make([]string, len(ve.Diags))
	for i, d := range ve.Diags {
		parts[i] = d.String()
	}
	return fmt.Sprintf("%d: %s", len(parts), strings.Join(parts, " | "))
}

// TestDiagnosticsGolden pins every diagnostic the verifier emits over a
// fixed corpus: each loop compiled at 2, 3 and 4 cores and checked as
// compiled and under five seeded mutations (a communication instruction
// replaced by a nop, an edge tag incremented, a communication instruction
// swapped with its successor, a Bin operand pointed at another register,
// and a one-slot queue). One line per case lists the diagnostics in the
// order the verifier reports them, so a change that speeds the verifier
// up must leave this file byte-identical. Regenerate after an intentional
// change to the checks with:
//
//	go test ./internal/verify -run TestDiagnosticsGolden -update
func TestDiagnosticsGolden(t *testing.T) {
	var sb strings.Builder
	seen := map[string]int{}
	for li, l := range goldenLoops(t) {
		for _, cores := range []int{2, 3, 4} {
			set := fmt.Sprintf("%s/c%d", l.Name, cores)
			_, in, err := compileLoop(l, cores)
			if err != nil {
				fmt.Fprintf(&sb, "%s: compile error\n", set)
				continue
			}
			fmt.Fprintf(&sb, "%s as-compiled: %s\n", set, diagLine(verify.Check(in)))
			for mi, m := range mutations {
				rng := splitmix(uint64(li)<<16 | uint64(cores)<<8 | uint64(mi))
				mut := cloneInput(in)
				where := m.apply(&mut, &rng)
				if where == "" {
					fmt.Fprintf(&sb, "%s %s: no site\n", set, m.name)
					continue
				}
				err := verify.Check(mut)
				var ve *verify.Error
				if errors.As(err, &ve) {
					for _, d := range ve.Diags {
						seen[d.Check]++
					}
				}
				fmt.Fprintf(&sb, "%s %s %s: %s\n", set, m.name, where, diagLine(err))
			}
		}
	}
	got := sb.String()
	for _, check := range []string{"fifo-order", "fifo-depth", "deadlock", "token-coverage", "copy-out", "provenance", "structure"} {
		if seen[check] == 0 {
			t.Errorf("no case produced a %q diagnostic; the corpus no longer covers that check", check)
		}
	}
	if *update {
		if err := os.WriteFile(goldenDiagnostics, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenDiagnostics)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, verifier produced %d", len(wl), len(gl))
}

// compileLoop compiles l at the given core count with the default options
// and returns the verifier input for its programs.
func compileLoop(l *ir.Loop, cores int) (*core.Artifact, verify.Input, error) {
	art, err := core.Compile(l, core.DefaultOptions(cores))
	if err != nil {
		return nil, verify.Input{}, err
	}
	mc := art.MachineConfig()
	return art, verify.Input{
		Programs: art.Compiled.Programs,
		Cores:    mc.Cores,
		QueueLen: mc.QueueLen,
		Fn:       art.Fn,
		Deps:     art.Deps,
		Parts:    art.Parts,
	}, nil
}

// BenchmarkCheck times the verifier over the golden corpus's program sets
// as compiled, the shape every compile and search candidate presents.
func BenchmarkCheck(b *testing.B) {
	var ins []verify.Input
	for _, l := range goldenLoops(b) {
		for _, cores := range []int{2, 3, 4} {
			if _, in, err := compileLoop(l, cores); err == nil {
				ins = append(ins, in)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, in := range ins {
			if err := verify.Check(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}
