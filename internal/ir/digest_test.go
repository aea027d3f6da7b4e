package ir_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fgp/internal/frontend"
	"fgp/internal/fuzz"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
)

// digestCorpus returns every loop the repository ships or generates: the
// 18 evaluation kernels, the tier-2 corpus, the example sources and 300
// generator seeds.
func digestCorpus(t *testing.T) []*ir.Loop {
	t.Helper()
	var loops []*ir.Loop
	for _, k := range kernels.All() {
		loops = append(loops, k.Build())
	}
	t2, err := tier2.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range t2 {
		l, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		loops = append(loops, l)
	}
	srcs, err := filepath.Glob("../../examples/source/*.fgp")
	if err != nil || len(srcs) == 0 {
		t.Fatalf("example sources: %v (found %d)", err, len(srcs))
	}
	for _, path := range srcs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		l, err := frontend.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		loops = append(loops, l)
	}
	for seed := uint64(0); seed < 300; seed++ {
		loops = append(loops, fuzz.Generate(seed, fuzz.GenConfig{}))
	}
	return loops
}

func mustMarshal(t *testing.T, l *ir.Loop) []byte {
	t.Helper()
	data, err := ir.MarshalLoop(l)
	if err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	return data
}

// TestDigestMatchesWireEquality: over the whole corpus, two loops share a
// digest exactly when their MarshalLoop encodings are byte-identical.
func TestDigestMatchesWireEquality(t *testing.T) {
	loops := digestCorpus(t)
	byWire := map[string][32]byte{}
	byDigest := map[[32]byte]string{}
	for _, l := range loops {
		wire := string(mustMarshal(t, l))
		d := ir.Digest(l)
		if prev, ok := byWire[wire]; ok && prev != d {
			t.Errorf("%s: one wire encoding, two digests", l.Name)
		}
		if prev, ok := byDigest[d]; ok && prev != wire {
			t.Errorf("%s: one digest, two wire encodings", l.Name)
		}
		byWire[wire], byDigest[d] = d, wire
		// A decoded wire submission keeps its address.
		back, err := ir.UnmarshalLoop([]byte(wire))
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if ir.Digest(back) != d {
			t.Errorf("%s: digest changed across the wire round trip", l.Name)
		}
	}
	if len(byWire) < 300 {
		t.Fatalf("corpus has only %d distinct loops", len(byWire))
	}
}

// digestBase is a small loop with every node type, for the targeted
// mutations below: Body[0] defines x, Body[1] is k = 2, Body[2] is an If
// with both arms.
func digestBase() *ir.Loop {
	b := ir.NewBuilder("base", "i", 0, 4, 1)
	b.ArrayF("a", []float64{1.5, 2, -3, 4})
	b.ArrayI("idx", []int64{3, 2, 1, 0})
	s := b.ScalarF("s", 0.25)
	i := b.Idx()
	x := b.Def("x", ir.MulE(ir.LDF("a", ir.LDI("idx", i)), s))
	b.Def("k", ir.I(2))
	b.If(ir.LtE(x, ir.F(1)), func() {
		b.Def("y", ir.SqrtE(ir.AbsE(x)))
	}, func() {
		b.Def("y", ir.NegE(x))
	})
	b.StoreF("a", i, ir.AddE(b.T("y"), ir.F(2)))
	b.LiveOut("y")
	return b.MustBuild()
}

// TestDigestTargetedMutations: single-field edits move the digest exactly
// when they move the wire encoding.
func TestDigestTargetedMutations(t *testing.T) {
	setElem := func(v float64) func(*ir.Loop) {
		return func(l *ir.Loop) { l.Arrays[0].InitF[1] = v }
	}
	cases := []struct {
		name     string
		a, b     func(*ir.Loop)
		wantSame bool
	}{
		{"last bit of an array element", nil, func(l *ir.Loop) {
			l.Arrays[0].InitF[2] = math.Float64frombits(math.Float64bits(l.Arrays[0].InitF[2]) ^ 1)
		}, false},
		{"+0 vs -0", setElem(0), setElem(math.Copysign(0, -1)), false},
		{"two NaN payloads", setElem(math.Float64frombits(0x7FF8000000000001)),
			setElem(math.Float64frombits(0x7FF0000000000002)), true},
		{"changed Src line", nil, func(l *ir.Loop) { l.Body[0].(*ir.Assign).Src++ }, false},
		{"renamed temp", nil, func(l *ir.Loop) {
			l.Body[0].(*ir.Assign).Dest = ir.TempDest{Name: "x2", K: ir.F64}
		}, false},
		{"If branches swapped", nil, func(l *ir.Loop) {
			x := l.Body[2].(*ir.If)
			x.Then, x.Else = x.Else, x.Then
		}, false},
		{"one-armed If moved to the other arm",
			func(l *ir.Loop) { l.Body[2].(*ir.If).Else = nil },
			func(l *ir.Loop) {
				x := l.Body[2].(*ir.If)
				x.Then, x.Else = nil, x.Then
			}, false},
		{"string boundary moved", nil, func(l *ir.Loop) { l.Name, l.Index = "bas", "ei" }, false},
		{"temp kind",
			func(l *ir.Loop) { l.Body[1].(*ir.Assign).X = ir.Temp{Name: "t", K: ir.I64} },
			func(l *ir.Loop) { l.Body[1].(*ir.Assign).X = ir.Temp{Name: "t", K: ir.F64} }, false},
		// 0 and 0.0 have the same bits, so only the node tag tells them apart.
		{"equal-valued i64 vs f64 constant",
			func(l *ir.Loop) { l.Body[1].(*ir.Assign).X = ir.ConstI{V: 0} },
			func(l *ir.Loop) { l.Body[1].(*ir.Assign).X = ir.ConstF{V: 0} }, false},
		// encoding/json writes every invalid UTF-8 byte as the escape \ufffd, and a
		// valid U+FFFD as itself.
		{"two invalid UTF-8 names", func(l *ir.Loop) { l.Name = "t\xff" },
			func(l *ir.Loop) { l.Name = "t\xfe" }, true},
		{"invalid UTF-8 vs U+FFFD", func(l *ir.Loop) { l.Name = "t\xff" },
			func(l *ir.Loop) { l.Name = "t\uFFFD" }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			la, lb := digestBase(), digestBase()
			if c.a != nil {
				c.a(la)
			}
			c.b(lb)
			sameWire := bytes.Equal(mustMarshal(t, la), mustMarshal(t, lb))
			if sameWire != c.wantSame {
				t.Fatalf("wire encodings equal = %v, want %v", sameWire, c.wantSame)
			}
			if sameDigest := ir.Digest(la) == ir.Digest(lb); sameDigest != c.wantSame {
				t.Errorf("digests equal = %v, want %v", sameDigest, c.wantSame)
			}
		})
	}
}

// TestDigestAllocs caps Digest's allocations regardless of loop size.
func TestDigestAllocs(t *testing.T) {
	irs, err := kernels.ByName("irs-1")
	if err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder("big", "i", 0, 4, 1)
	b.ArrayF("a", make([]float64, 2<<20))
	b.StoreF("a", b.Idx(), ir.F(1))
	for _, l := range []*ir.Loop{irs.Build(), b.MustBuild()} {
		if n := testing.AllocsPerRun(3, func() { ir.Digest(l) }); n > 3 {
			t.Errorf("%s: Digest made %.0f allocations, want at most 3", l.Name, n)
		}
	}
}

var digestSink [32]byte

func BenchmarkDigest(b *testing.B) {
	k, err := kernels.ByName("irs-1")
	if err != nil {
		b.Fatal(err)
	}
	l := k.Build()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		digestSink = ir.Digest(l)
	}
}
