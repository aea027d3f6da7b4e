// Package mem implements the shared memory of the simulated node and a
// simple per-core L1 cache timing model. Functional data always lives in
// the backing arrays (stores write through immediately), so the caches only
// produce load latencies; the compiler never splits ordered accesses to
// aliasing locations across cores, which makes a coherence protocol
// unnecessary for correctness.
package mem

import (
	"errors"
	"fmt"

	"fgp/internal/ir"
)

// ErrOutOfBounds is wrapped by loads and stores whose index falls outside
// the target array. The fuzz oracle classifies errors wrapping it as
// semantic traps (mirroring interp.ErrOutOfBounds on the interpreter side)
// rather than simulator-infrastructure failures.
var ErrOutOfBounds = errors.New("out of bounds")

// ArrayID indexes a registered array.
type ArrayID = int32

// Memory is the shared address space: a set of named arrays laid out
// consecutively, line-aligned, so cache indexing behaves realistically.
type Memory struct {
	names  map[string]ArrayID
	arrays []array
}

type array struct {
	name string
	k    ir.Kind
	base int64 // byte address of element 0
	f    []float64
	i    []int64
}

const elemSize = 8

// New creates an empty memory.
func New() *Memory { return &Memory{names: map[string]ArrayID{}} }

// AddF registers a float array initialized with a copy of init.
func (m *Memory) AddF(name string, init []float64) ArrayID {
	return m.add(array{name: name, k: ir.F64, f: append([]float64(nil), init...)})
}

// AddI registers an integer array initialized with a copy of init.
func (m *Memory) AddI(name string, init []int64) ArrayID {
	return m.add(array{name: name, k: ir.I64, i: append([]int64(nil), init...)})
}

func (m *Memory) add(a array) ArrayID {
	if _, dup := m.names[a.name]; dup {
		panic(fmt.Sprintf("mem: array %q registered twice", a.name))
	}
	var end int64
	if n := len(m.arrays); n > 0 {
		prev := &m.arrays[n-1]
		end = prev.base + int64(prev.len())*elemSize
	}
	// Align each array to a 64-byte line boundary.
	a.base = (end + 63) &^ 63
	id := ArrayID(len(m.arrays))
	m.arrays = append(m.arrays, a)
	m.names[a.name] = id
	return id
}

func (a *array) len() int {
	if a.k == ir.F64 {
		return len(a.f)
	}
	return len(a.i)
}

// ID resolves an array name.
func (m *Memory) ID(name string) (ArrayID, bool) {
	id, ok := m.names[name]
	return id, ok
}

// Addr returns the byte address of arr[idx], for the cache model. Invalid
// ids return address 0 (the simulator errors on the access itself first).
func (m *Memory) Addr(arr ArrayID, idx int64) int64 {
	if arr < 0 || int(arr) >= len(m.arrays) {
		return 0
	}
	return m.arrays[arr].base + idx*elemSize
}

// DataF returns the live backing slice of a float array (nil for integer
// arrays or invalid ids). Writes through the slice are real stores; the
// simulator's threaded engine binds its loads and stores to it as direct
// slice accesses.
func (m *Memory) DataF(arr ArrayID) []float64 {
	if arr < 0 || int(arr) >= len(m.arrays) {
		return nil
	}
	return m.arrays[arr].f
}

// DataI returns the live backing slice of an integer array (nil for float
// arrays or invalid ids).
func (m *Memory) DataI(arr ArrayID) []int64 {
	if arr < 0 || int(arr) >= len(m.arrays) {
		return nil
	}
	return m.arrays[arr].i
}

// Base returns the byte address of element 0 of an array (0 for invalid
// ids), so Base(arr) + idx*8 == Addr(arr, idx).
func (m *Memory) Base(arr ArrayID) int64 {
	if arr < 0 || int(arr) >= len(m.arrays) {
		return 0
	}
	return m.arrays[arr].base
}

// Len returns the element count of an array.
func (m *Memory) Len(arr ArrayID) int { return m.arrays[arr].len() }

// Kind returns the element kind of an array.
func (m *Memory) Kind(arr ArrayID) ir.Kind { return m.arrays[arr].k }

// Name returns the name of an array.
func (m *Memory) Name(arr ArrayID) string { return m.arrays[arr].name }

func (m *Memory) array(arr ArrayID) (*array, error) {
	if arr < 0 || int(arr) >= len(m.arrays) {
		return nil, fmt.Errorf("mem: invalid array id %d (have %d arrays)", arr, len(m.arrays))
	}
	return &m.arrays[arr], nil
}

// LoadF reads a float element.
func (m *Memory) LoadF(arr ArrayID, idx int64) (float64, error) {
	a, err := m.array(arr)
	if err != nil {
		return 0, err
	}
	if idx < 0 || idx >= int64(len(a.f)) {
		return 0, fmt.Errorf("mem: load %s[%d] %w (len %d)", a.name, idx, ErrOutOfBounds, len(a.f))
	}
	return a.f[idx], nil
}

// LoadI reads an integer element.
func (m *Memory) LoadI(arr ArrayID, idx int64) (int64, error) {
	a, err := m.array(arr)
	if err != nil {
		return 0, err
	}
	if idx < 0 || idx >= int64(len(a.i)) {
		return 0, fmt.Errorf("mem: load %s[%d] %w (len %d)", a.name, idx, ErrOutOfBounds, len(a.i))
	}
	return a.i[idx], nil
}

// StoreF writes a float element.
func (m *Memory) StoreF(arr ArrayID, idx int64, v float64) error {
	a, err := m.array(arr)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= int64(len(a.f)) {
		return fmt.Errorf("mem: store %s[%d] %w (len %d)", a.name, idx, ErrOutOfBounds, len(a.f))
	}
	a.f[idx] = v
	return nil
}

// StoreI writes an integer element.
func (m *Memory) StoreI(arr ArrayID, idx int64, v int64) error {
	a, err := m.array(arr)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= int64(len(a.i)) {
		return fmt.Errorf("mem: store %s[%d] %w (len %d)", a.name, idx, ErrOutOfBounds, len(a.i))
	}
	a.i[idx] = v
	return nil
}

// SnapshotF returns a copy of a float array's contents.
func (m *Memory) SnapshotF(name string) []float64 {
	id, ok := m.names[name]
	if !ok {
		return nil
	}
	return append([]float64(nil), m.arrays[id].f...)
}

// SnapshotI returns a copy of an integer array's contents.
func (m *Memory) SnapshotI(name string) []int64 {
	id, ok := m.names[name]
	if !ok {
		return nil
	}
	return append([]int64(nil), m.arrays[id].i...)
}
