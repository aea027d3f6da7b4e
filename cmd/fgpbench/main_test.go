package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags pins fgpbench's usage errors (main exits 2 on each) and
// that -once lists the modes it accepts.
func TestCheckFlags(t *testing.T) {
	modes := []Mode{{Name: "reference-serial"}, {Name: "threaded-serial"}, {Name: "threaded-parallel"}}
	type flags struct {
		args             []string
		repeats, workers int
		gate             float64
		once             string
	}
	ok := flags{repeats: 5}
	for _, c := range []struct {
		name string
		edit func(*flags)
		want string
	}{
		{"valid", func(*flags) {}, ""},
		{"valid once", func(f *flags) { f.once = "threaded-parallel" }, ""},
		{"valid gate", func(f *flags) { f.gate = 0.25 }, ""},
		{"repeats 0", func(f *flags) { f.repeats = 0 }, "-repeats must be >= 1"},
		{"negative workers", func(f *flags) { f.workers = -1 }, "-workers must be >= 0"},
		{"negative gate", func(f *flags) { f.gate = -0.1 }, "-gate must be >= 0"},
		{"NaN gate", func(f *flags) { f.gate = math.NaN() }, "-gate must be >= 0"},
		{"unknown mode", func(f *flags) { f.once = "bogus" },
			`-once: unknown mode "bogus" (have reference-serial, threaded-serial, threaded-parallel)`},
		{"positional argument", func(f *flags) { f.args = []string{"extra"} }, `unexpected argument "extra"`},
	} {
		f := ok
		c.edit(&f)
		err := checkFlags(f.args, modes, f.repeats, f.workers, f.gate, f.once)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}
