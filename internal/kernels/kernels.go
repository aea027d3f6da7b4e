// Package kernels defines the 18 hot-loop kernels used in the paper's
// evaluation (Table I): five loops from lammps, five from irs, six from
// umt2k and two from sphot. The original Sequoia sources and Blue Gene
// profiles are not redistributable, so each kernel here is a synthetic
// equivalent authored to match the structural signature the paper reports
// for it (Table III): operation mix, approximate fiber count, dependence
// density, conditional structure, and reduction patterns. Input data is
// deterministic (seeded xorshift), so every experiment is reproducible
// bit-for-bit.
package kernels

import (
	"fmt"
	"sort"
	"sync"

	"fgp/internal/ir"
)

// Kernel is one evaluation loop plus the paper's published numbers for it.
type Kernel struct {
	Name string
	App  string
	// PctTime is the fraction of whole-application time the loop accounts
	// for (Table I, percent).
	PctTime float64
	// Paper columns from Table III (4-core configuration).
	PaperFibers  int
	PaperDeps    int
	PaperBalance float64
	PaperCommOps int
	PaperQueues  int
	PaperSpeedup float64
	// HasConditionals mirrors the paper's Section IV characterization.
	HasConditionals bool
	// SpeculationHelps marks the kernels whose conditionals the
	// control-flow speculation pass targets (Fig 14 improves 8 kernels).
	SpeculationHelps bool

	build func() *ir.Loop

	digestOnce sync.Once
	digest     [32]byte
}

// Build constructs a fresh loop (new data arrays each call).
func (k *Kernel) Build() *ir.Loop { return k.build() }

// Digest returns ir.Digest of the kernel's loop. It builds and hashes the
// loop on first use and keeps the result on the kernel, so the caches that
// address compiled work by it pay once per kernel, not once per lookup.
func (k *Kernel) Digest() [32]byte {
	k.digestOnce.Do(func() { k.digest = ir.Digest(k.build()) })
	return k.digest
}

// Wrap builds an unregistered Kernel around a caller-supplied loop
// builder, so engines written against the registry type — the experiment
// runner, the machine-space sweeper — can run loops that arrive from
// outside it (e.g. IR posted to fgpd). The kernel carries no paper
// columns; only Name, Build and Digest are meaningful. Caches address a
// kernel by its Digest, never its Name, so two wrapped kernels that share
// a name but not a loop never alias.
func Wrap(name string, build func() *ir.Loop) *Kernel {
	return &Kernel{Name: name, build: build}
}

var registry []*Kernel

func register(k *Kernel) {
	registry = append(registry, k)
}

// All returns the 18 kernels in Table I order.
func All() []*Kernel {
	out := append([]*Kernel(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return tableOrder(out[i].Name) < tableOrder(out[j].Name) })
	return out
}

// ByName finds a kernel.
func ByName(name string) (*Kernel, error) {
	for _, k := range registry {
		if k.Name == name {
			return k, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q", name)
}

var tableNames = []string{
	"lammps-1", "lammps-2", "lammps-3", "lammps-4", "lammps-5",
	"irs-1", "irs-2", "irs-3", "irs-4", "irs-5",
	"umt2k-1", "umt2k-2", "umt2k-3", "umt2k-4", "umt2k-5", "umt2k-6",
	"sphot-1", "sphot-2",
}

func tableOrder(name string) int {
	for i, n := range tableNames {
		if n == name {
			return i
		}
	}
	return len(tableNames)
}

// Apps returns the application names in Table II order.
func Apps() []string { return []string{"lammps", "irs", "umt2k", "sphot"} }

// ByApp returns the kernels of one application, in table order.
func ByApp(app string) []*Kernel {
	var out []*Kernel
	for _, k := range All() {
		if k.App == app {
			out = append(out, k)
		}
	}
	return out
}

// rng is a deterministic xorshift64* generator for kernel input data.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// f64 returns a float in [lo, hi).
func (r *rng) f64(lo, hi float64) float64 {
	u := r.next() >> 11 // 53 bits
	return lo + (hi-lo)*(float64(u)/float64(1<<53))
}

// i64 returns an int in [0, n).
func (r *rng) i64(n int64) int64 {
	return int64(r.next() % uint64(n))
}

// floats fills a slice with values in [lo, hi).
func (r *rng) floats(n int, lo, hi float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.f64(lo, hi)
	}
	return s
}

// indices fills a slice with indices in [0, max).
func (r *rng) indices(n int, max int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = r.i64(max)
	}
	return s
}
