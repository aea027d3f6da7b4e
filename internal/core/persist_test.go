package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"fgp/internal/kernels"
	"fgp/internal/sim"
)

// TestArtifactRoundTrip is the persistence acceptance criterion: an
// artifact restored from its serialized form must simulate bit-identically
// to the artifact that was stored, on every engine.
func TestArtifactRoundTrip(t *testing.T) {
	for _, name := range []string{"sphot-1", "irs-1", "lammps-2"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		art, err := Compile(k.Build(), DefaultOptions(3))
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		data, err := art.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got, err := UnmarshalArtifact(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}

		if !reflect.DeepEqual(got.Report, art.Report) {
			t.Errorf("%s: report drifted:\ngot  %+v\nwant %+v", name, got.Report, art.Report)
		}
		if got.MachineConfig() != art.MachineConfig() {
			t.Errorf("%s: machine config drifted: %+v vs %+v", name, got.MachineConfig(), art.MachineConfig())
		}

		for _, engine := range sim.Engines() {
			cfg := art.MachineConfig()
			cfg.Engine = engine
			want, err := art.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: original run: %v", name, engine, err)
			}
			res, err := got.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: restored run: %v", name, engine, err)
			}
			if res.Cycles != want.Cycles || res.Transfers != want.Transfers ||
				!reflect.DeepEqual(res.PerCoreCycles, want.PerCoreCycles) ||
				!reflect.DeepEqual(res.EnqStalls, want.EnqStalls) ||
				!reflect.DeepEqual(res.DeqStalls, want.DeqStalls) {
				t.Errorf("%s/%s: restored artifact diverged: %+v vs %+v", name, engine, res, want)
			}
		}

		// The restored artifact still passes end-to-end verification against
		// the reference interpreter (memory image + live-outs).
		if _, err := got.Verify(got.MachineConfig()); err != nil {
			t.Errorf("%s: restored artifact fails verify: %v", name, err)
		}
	}
}

func TestUnmarshalArtifactRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalArtifact([]byte("not a gob stream")); err == nil {
		t.Error("garbage bytes decoded without error")
	}
	if _, err := UnmarshalArtifact(nil); err == nil {
		t.Error("empty input decoded without error")
	}
}

func TestUnmarshalArtifactRejectsVersionSkew(t *testing.T) {
	k, err := kernels.ByName("sphot-1")
	if err != nil {
		t.Fatal(err)
	}
	art, err := Compile(k.Build(), DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode the wire struct with a bumped version: the decoder must
	// refuse it so stale snapshots read as misses, not wrong artifacts.
	data, err := art.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w artifactWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	w.Version = artifactWireVersion + 1
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalArtifact(buf.Bytes()); err == nil {
		t.Error("version-skewed artifact decoded without error")
	}
}
