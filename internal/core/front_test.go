package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fgp/internal/kernels"
)

// TestFrontCompilesConcurrently: one loop's Front serves its profiling run
// and heuristic compiles at 2 and 4 cores and a searched compile at the
// default search workers (one per CPU), all running at once, and every
// artifact is bit-identical to what Compile builds on a front of its own.
// Run under -race it is the check that the back half only reads the front.
func TestFrontCompilesConcurrently(t *testing.T) {
	searched := DefaultOptions(4)
	searched.Partitioner = PartitionerSearch
	searched.SearchBudget = 8
	opts := []Options{DefaultOptions(2), DefaultOptions(4), searched}

	for _, name := range []string{"lammps-1", "irs-1", "umt2k-1", "sphot-1"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFront(k.Build(), opts[0])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := make([]*Artifact, len(opts))
		errs := make([]error, len(opts)+1)
		var profCycles int64
		var wg sync.WaitGroup
		for i, opt := range opts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = f.Compile(context.Background(), opt)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, profCycles, errs[len(opts)] = f.Profile(context.Background(), ProfileOptions(opts[0]))
		}()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: compile %d on the shared front: %v", name, i, err)
			}
		}

		for i, opt := range opts {
			want, err := Compile(k.Build(), opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got[i].Compiled, want.Compiled) || !reflect.DeepEqual(got[i].Report, want.Report) {
				t.Errorf("%s/%d cores (%s): the shared front compiled differently from Compile",
					name, opt.Cores, want.Report.Partitioner)
			}
		}
		_, wantCycles, err := ComputeProfile(context.Background(), k.Build(), ProfileOptions(opts[0]))
		if err != nil {
			t.Fatal(err)
		}
		if profCycles != wantCycles {
			t.Errorf("%s: profiling run on the shared front took %d cycles, ComputeProfile %d", name, profCycles, wantCycles)
		}
	}
}

// TestFrontRefusesOtherFrontOptions: a front compiles and profiles only
// options whose FrontOptions it was built with, and the option checks still
// come first.
func TestFrontRefusesOtherFrontOptions(t *testing.T) {
	k, err := kernels.ByName("sphot-1")
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFront(k.Build(), DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultOptions(2)
	spec.Speculate = true
	if _, err := f.Compile(context.Background(), spec); err == nil {
		t.Error("a front built without speculation compiled a speculated variant")
	}
	if _, _, err := f.Profile(context.Background(), ProfileOptions(spec)); err == nil {
		t.Error("a front built without speculation profiled a speculated variant")
	}
	bad := spec
	bad.Cores = 0
	if _, err := f.Compile(context.Background(), bad); err == nil || err.Error() != "core: cores must be >= 1" {
		t.Errorf("bad options on a mismatched front: %v, want the cores check first", err)
	}
}
