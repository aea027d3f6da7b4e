// Artifact persistence: a compiled kernel serialized to bytes and back, so
// fgpd's on-disk artifact store (internal/service/store) can warm-start a
// restarted or horizontally scaled daemon without recompiling.
//
// The wire format carries exactly what executing an artifact needs — the
// per-core machine programs, the post-transformation loop (whose arrays
// build the fresh memory image of every run), the compile report, and the
// machine configuration — not the compiler's intermediate structures
// (TAC, fibers, dependence info, partitions). A restored artifact is
// therefore the Executable form: it supports Run/RunContext/Verify/
// MachineConfig/Report, which is everything a cache's consumers use after
// compilation; it is not a substitute for the pipeline's internals.
//
// Loops travel in their canonical JSON wire encoding (ir.MarshalLoop, the
// codec fgpd also accepts loops in), everything else in gob. The
// store layers integrity checking (sha256 of the payload) on top, so this
// codec only needs a version tag to reject incompatible snapshots.

package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/outline"
	"fgp/internal/sim"
)

// artifactWireVersion is bumped whenever the serialized shape (this struct,
// isa.Instr, sim.Config, the IR wire codec, ...) changes incompatibly. A
// mismatch makes UnmarshalArtifact fail, which the store's callers treat
// like a cache miss: the kernel recompiles and the stale entry is
// overwritten.
const artifactWireVersion = 1

// artifactWire is the serialized form of an Artifact.
type artifactWire struct {
	Version      int
	Loop         []byte // canonical encoding of the post-transformation loop
	Source       []byte // canonical encoding of the original loop
	Programs     []*isa.Program
	CommOps      int
	Transfers    int
	StaticQueues int
	Report       Report
	Machine      sim.Config // Sink is zeroed: recordings never persist
}

// Executable returns the part of a that running it needs: the loop and
// source, the machine programs, the report and the machine configuration,
// without the compiler's intermediate structures. It is exactly what
// UnmarshalArtifact restores, so a cache holds one artifact shape whichever
// tier served it.
func (a *Artifact) Executable() *Artifact {
	return &Artifact{Loop: a.Loop, Source: a.Source, Compiled: a.Compiled, Report: a.Report, machine: a.machine}
}

// MarshalBinary serializes the artifact for the on-disk store.
func (a *Artifact) MarshalBinary() ([]byte, error) {
	loopBytes, err := ir.MarshalLoop(a.Loop)
	if err != nil {
		return nil, fmt.Errorf("core: encoding loop: %w", err)
	}
	srcBytes, err := ir.MarshalLoop(a.Source)
	if err != nil {
		return nil, fmt.Errorf("core: encoding source loop: %w", err)
	}
	mc := a.machine
	mc.Sink = nil
	w := artifactWire{
		Version:      artifactWireVersion,
		Loop:         loopBytes,
		Source:       srcBytes,
		Programs:     a.Compiled.Programs,
		CommOps:      a.Compiled.CommOps,
		Transfers:    a.Compiled.Transfers,
		StaticQueues: a.Compiled.StaticQueues,
		Report:       a.Report,
		Machine:      mc,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("core: encoding artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalArtifact restores a serialized artifact. The result executes
// bit-identically to the artifact that was stored (the programs and machine
// configuration are carried verbatim; every run builds its memory image
// fresh from the loop's arrays). Like a freshly compiled artifact's, its
// programs build their threaded translations on first simulation.
func UnmarshalArtifact(data []byte) (*Artifact, error) {
	var w artifactWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("core: decoding artifact: %w", err)
	}
	if w.Version != artifactWireVersion {
		return nil, fmt.Errorf("core: artifact wire version %d, want %d", w.Version, artifactWireVersion)
	}
	loop, err := ir.UnmarshalLoop(w.Loop)
	if err != nil {
		return nil, fmt.Errorf("core: decoding loop: %w", err)
	}
	src, err := ir.UnmarshalLoop(w.Source)
	if err != nil {
		return nil, fmt.Errorf("core: decoding source loop: %w", err)
	}
	if len(w.Programs) == 0 {
		return nil, fmt.Errorf("core: artifact carries no programs")
	}
	for _, prog := range w.Programs {
		if err := prog.Validate(w.Machine.Cores); err != nil {
			return nil, fmt.Errorf("core: restored program failed validation: %w", err)
		}
	}
	return &Artifact{
		Loop:   loop,
		Source: src,
		Compiled: &outline.Compiled{
			Programs:     w.Programs,
			CommOps:      w.CommOps,
			Transfers:    w.Transfers,
			StaticQueues: w.StaticQueues,
		},
		Report:  w.Report,
		machine: w.Machine,
	}, nil
}
