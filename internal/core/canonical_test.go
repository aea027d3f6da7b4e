package core

import (
	"reflect"
	"testing"

	"fgp/internal/artcache"
	"fgp/internal/kernels"
	"fgp/internal/sim"
)

// How CanonicalOptions treats a field.
type addressClass int

const (
	hashed     addressClass = iota // always part of the address
	searchOnly                     // part of the address only under PartitionerSearch
	runOnly                        // never: host time or a run-time choice only
	derived                        // never: computed from other fields
)

// The address policy, field by field. A field missing here fails
// TestCanonicalOptionsClassifyEveryField: whoever adds it decides whether it
// can change a compiled artifact, and CanonicalOptions must agree.
var (
	optionFields = map[string]addressClass{
		"Cores":         hashed,
		"Weights":       hashed,
		"Throughput":    hashed,
		"MultiPair":     hashed,
		"Speculate":     hashed,
		"NormalizeOps":  hashed,
		"Schedule":      hashed,
		"UseProfile":    hashed,
		"Profile":       derived,
		"Machine":       hashed,
		"Partitioner":   hashed,
		"SearchSeed":    searchOnly,
		"SearchBudget":  searchOnly,
		"SearchWorkers": runOnly,
	}
	machineFields = map[string]addressClass{
		"Cores":           hashed,
		"QueueLen":        hashed,
		"TransferLatency": searchOnly,
		"Cost":            hashed,
		"Cache":           hashed,
		"DebugEdges":      runOnly,
		"CollectProfile":  derived,
		"GroupSize":       hashed,
		"MemPortCycles":   hashed,
		"MaxSteps":        hashed,
		"Sink":            runOnly,
		"Engine":          runOnly,
	}
)

// perturb sets v to a different value of its type.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		perturb(t, v.Field(0))
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(reflect.Zero(v.Type().Key()), reflect.Zero(v.Type().Elem()))
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		if !v.IsNil() {
			p.Elem().Set(v.Elem())
		}
		perturb(t, p.Elem())
		v.Set(p)
	default:
		t.Fatalf("cannot perturb a %s", v.Type())
	}
}

// TestCanonicalOptionsClassifyEveryField pins the address policy: every
// field of Options and sim.Config is classified, and perturbing it moves
// the address exactly when its class says it should.
func TestCanonicalOptionsClassifyEveryField(t *testing.T) {
	var digest [32]byte
	addr := func(o Options) string { return artcache.Address(digest, CanonicalOptions(o)) }
	base := func(partitioner string) Options {
		o := DefaultOptions(4)
		o.Partitioner = partitioner
		mc := sim.DefaultConfig(4)
		o.Machine = &mc
		return o
	}
	check := func(field string, class addressClass, ok bool, field0 func(*Options) reflect.Value) {
		if !ok {
			t.Errorf("%s is not classified: decide whether it can change a compiled artifact, "+
				"make CanonicalOptions keep or drop it, and list it here", field)
			return
		}
		for _, p := range []string{PartitionerHeuristic, PartitionerSearch} {
			o := base(p)
			perturb(t, field0(&o))
			moved := addr(o) != addr(base(p))
			want := class == hashed || class == searchOnly && p == PartitionerSearch
			if moved != want {
				t.Errorf("%s under %s: address moved=%v, want %v", field, p, moved, want)
			}
		}
	}
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		class, ok := optionFields[name]
		check("Options."+name, class, ok, func(o *Options) reflect.Value { return reflect.ValueOf(o).Elem().Field(i) })
	}
	mt := reflect.TypeOf(sim.Config{})
	for i := 0; i < mt.NumField(); i++ {
		name := mt.Field(i).Name
		class, ok := machineFields[name]
		check("sim.Config."+name, class, ok, func(o *Options) reflect.Value { return reflect.ValueOf(o.Machine).Elem().Field(i) })
	}
}

// frontFields is the front-address ledger: whether each Options field
// counts in FrontOptions (the front half reads it) or not. A field missing
// here fails TestFrontOptionsClassifyEveryField.
var frontFields = map[string]bool{
	"Cores":         false,
	"Weights":       false,
	"Throughput":    false,
	"MultiPair":     false,
	"Speculate":     true,
	"NormalizeOps":  true,
	"Schedule":      false,
	"UseProfile":    false,
	"Profile":       false,
	"Machine":       false,
	"Partitioner":   false,
	"SearchSeed":    false,
	"SearchBudget":  false,
	"SearchWorkers": false,
}

// TestFrontOptionsClassifyEveryField pins the front address: every field
// of Options is in the ledger, and perturbing it moves the address exactly
// when the ledger counts it. Over the tier-1 kernels, perturbing a counted
// field changes some kernel's front, and perturbing any other field leaves
// every front NewFront builds unchanged, so a front shared across options
// with equal FrontOptions is the front each of them would build.
func TestFrontOptionsClassifyEveryField(t *testing.T) {
	var digest [32]byte
	addr := func(o Options) string { return artcache.Address(digest, FrontOptions(o)) }
	base := DefaultOptions(4)
	mc := sim.DefaultConfig(4)
	base.Machine = &mc
	ks := kernels.All()
	fronts := func(o Options) []*Front {
		out := make([]*Front, len(ks))
		for i, k := range ks {
			f, err := NewFront(k.Build(), o)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			out[i] = f
		}
		return out
	}
	want := fronts(base)
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		counts, ok := frontFields[name]
		if !ok {
			t.Errorf("Options.%s is not classified: decide whether the front half reads it, "+
				"make FrontOptions keep or drop it, and list it in frontFields", name)
			continue
		}
		o := base
		perturb(t, reflect.ValueOf(&o).Elem().Field(i))
		if moved := addr(o) != addr(base); moved != counts {
			t.Errorf("Options.%s: front address moved=%v, want %v", name, moved, counts)
		}
		changed := 0
		for j, f := range fronts(o) {
			if !reflect.DeepEqual(f, want[j]) {
				changed++
				if !counts {
					t.Errorf("Options.%s changes the front of %s but does not count in its address", name, ks[j].Name)
				}
			}
		}
		if counts && changed == 0 {
			t.Errorf("Options.%s counts in the front address but changes no tier-1 kernel's front", name)
		}
	}
}

// runFields is the run-key ledger: whether each sim.Config field counts in
// a memoized result's address (CanonicalRun keeps it) or not (a run-time
// choice that leaves the Result bit-identical). A field missing here fails
// TestCanonicalRunClassifiesEveryField.
var runFields = map[string]bool{
	"Cores":           true,
	"QueueLen":        true,
	"TransferLatency": true,
	"Cost":            true,
	"Cache":           true,
	"DebugEdges":      false,
	"CollectProfile":  true,
	"GroupSize":       true,
	"MemPortCycles":   true,
	"MaxSteps":        true,
	"Sink":            false,
	"Engine":          false,
}

// TestCanonicalRunClassifiesEveryField pins the run key: every field of
// sim.Config is in the ledger, and perturbing it moves a result's address
// exactly when the ledger counts it.
func TestCanonicalRunClassifiesEveryField(t *testing.T) {
	var digest [32]byte
	addr := func(c sim.Config) string { return artcache.Address(digest, CanonicalRun(c)) }
	base := sim.DefaultConfig(4)
	mt := reflect.TypeOf(sim.Config{})
	for i := 0; i < mt.NumField(); i++ {
		name := mt.Field(i).Name
		counts, ok := runFields[name]
		if !ok {
			t.Errorf("sim.Config.%s is not classified: decide whether it can change a Result, "+
				"make CanonicalRun keep or zero it, and list it in runFields", name)
			continue
		}
		c := base
		perturb(t, reflect.ValueOf(&c).Elem().Field(i))
		if moved := addr(c) != addr(base); moved != counts {
			t.Errorf("sim.Config.%s: result address moved=%v, want %v", name, moved, counts)
		}
	}
}

// TestCanonicalOptionsSpellings: the spellings of one compile that callers
// actually send share a canonical form.
func TestCanonicalOptionsSpellings(t *testing.T) {
	want := CanonicalOptions(DefaultOptions(4))
	same := []func(*Options){
		func(o *Options) { o.Partitioner = PartitionerHeuristic },
		func(o *Options) { mc := sim.DefaultConfig(4); o.Machine = &mc },
		func(o *Options) { mc := sim.DefaultConfig(2); o.Machine = &mc }, // widened to Cores
		func(o *Options) { mc := sim.DefaultConfig(4); mc.TransferLatency = 0; o.Machine = &mc },
		func(o *Options) { o.SearchSeed, o.SearchBudget = 1, 48 },
	}
	for i, f := range same {
		o := DefaultOptions(4)
		f(&o)
		if got := CanonicalOptions(o); !reflect.DeepEqual(got, want) {
			t.Errorf("spelling %d: canonical %+v, want %+v", i, got, want)
		}
	}
	s := DefaultOptions(4)
	s.Partitioner = PartitionerSearch
	explicit := s
	explicit.SearchBudget = 64
	if !reflect.DeepEqual(CanonicalOptions(s), CanonicalOptions(explicit)) {
		t.Error("search budget 0 and the default budget canonicalize differently")
	}
}

// TestHeuristicProgramsIgnoreTransferLatency is the fact the policy rests
// on: for every kernel at 2 and 4 cores, the heuristic partitioner emits
// the same programs and report at any transfer latency.
func TestHeuristicProgramsIgnoreTransferLatency(t *testing.T) {
	for _, k := range kernels.All() {
		for _, cores := range []int{2, 4} {
			var first *Artifact
			for _, lat := range []int64{0, 5, 50} {
				opt := DefaultOptions(cores)
				mc := sim.DefaultConfig(cores)
				mc.TransferLatency = lat
				opt.Machine = &mc
				a, err := Compile(k.Build(), opt)
				if err != nil {
					t.Fatalf("%s/%d latency %d: %v", k.Name, cores, lat, err)
				}
				if first == nil {
					first = a
					continue
				}
				if !reflect.DeepEqual(a.Compiled, first.Compiled) || !reflect.DeepEqual(a.Report, first.Report) {
					t.Errorf("%s/%d: latency %d compiled differently from latency 0", k.Name, cores, lat)
				}
			}
		}
	}
}

// TestProfileOptionsShareAcrossCores: one profile serves every core count
// and partitioner of a variant, and the canonical machine it names has one
// core.
func TestProfileOptionsShareAcrossCores(t *testing.T) {
	a, b := DefaultOptions(2), DefaultOptions(4)
	b.Partitioner = PartitionerSearch
	b.Throughput = true
	if !reflect.DeepEqual(ProfileOptions(a), ProfileOptions(b)) {
		t.Errorf("2-core and 4-core profile options differ:\n%+v\n%+v", ProfileOptions(a), ProfileOptions(b))
	}
	if p := ProfileOptions(a); p.Cores != 1 || p.Machine.Cores != 1 {
		t.Errorf("profile options target %d cores on a %d-core machine, want 1/1", p.Cores, p.Machine.Cores)
	}
	spec := a
	spec.Speculate = true
	if reflect.DeepEqual(ProfileOptions(a), ProfileOptions(spec)) {
		t.Error("speculation does not change the profile options")
	}
}
