package core

import (
	"strings"
	"testing"

	"fgp/internal/ir"
)

// TestVerifyRejectsSignedZero: Verify compares by bits, so a compiled
// program that leaves -0 where the reference interpreter leaves +0 fails,
// in an array element and in a live-out, and the error names which. The
// artifact is compiled from a loop that computes (a[i]-a[i])*-1 and checked
// against a Source that computes a[i]-a[i]; IEEE equality would pass it.
func TestVerifyRejectsSignedZero(t *testing.T) {
	build := func(negStore, negLive bool) *ir.Loop {
		b := ir.NewBuilder("z", "i", 0, 3, 1)
		b.ArrayF("a", []float64{1.5, -2, 4})
		b.ArrayF("o", []float64{7, 7, 7})
		b.ScalarF("s", 1)
		b.LiveOut("s")
		zero := func(neg bool) ir.Expr {
			d := ir.SubE(ir.LDF("a", b.Idx()), ir.LDF("a", b.Idx()))
			if neg {
				return ir.MulE(d, ir.F(-1))
			}
			return d
		}
		b.StoreF("o", b.Idx(), zero(negStore))
		b.Def("s", zero(negLive))
		return b.MustBuild()
	}
	want := build(false, false)
	for _, c := range []struct {
		name              string
		negStore, negLive bool
		names             string
	}{
		{"array element", true, false, "o[0] = -0, want 0"},
		{"live-out", false, true, `live-out "s"`},
	} {
		for _, cores := range []int{1, 2} {
			a, err := Compile(build(c.negStore, c.negLive), DefaultOptions(cores))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Verify(a.MachineConfig()); err != nil {
				t.Fatalf("%s, %d cores: the -0 loop fails against itself: %v", c.name, cores, err)
			}
			a.Source = want
			_, err = a.Verify(a.MachineConfig())
			if err == nil || !strings.Contains(err.Error(), "core: verify z: "+c.names) {
				t.Errorf("%s, %d cores: Verify against +0 returned %v, want an error naming %s", c.name, cores, err, c.names)
			}
		}
	}
}
