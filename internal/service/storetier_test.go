// Disk-tier conformance: a daemon restarted (or a replica started) on the
// same -store-dir serves earlier fills from disk instead of recompiling; a
// crash mid-fill leaves nothing visible; a bit-flipped entry is detected,
// evicted, recompiled, and overwritten — and results stay bit-identical
// through every path, with one artifact shape whichever tier served it.

package service

import (
	"context"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fgp/internal/core"
	"fgp/internal/kernels"
)

// sweep runs the full built-in catalog (the Fig 12 kernel set) at 2 cores
// and returns name → (cycles, seq cycles, speedup).
func sweep(t *testing.T, s *Server) map[string][3]any {
	t.Helper()
	ts := newServerOn(t, s)
	out := map[string][3]any{}
	for _, k := range kernels.All() {
		code, resp, errMsg := postRun(t, ts, RunRequest{Kernel: k.Name, Cores: 2})
		if code != 200 {
			t.Fatalf("%s: status %d (%s)", k.Name, code, errMsg)
		}
		out[k.Name] = [3]any{resp.Cycles, resp.SeqCycles, resp.Speedup}
	}
	return out
}

// newServerOn wraps an already-built Server in an httptest listener.
func newServerOn(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestWarmRestartServesFromDisk is the acceptance demo: a second daemon on
// the same -store-dir must serve the first's fills with a ≥90% artifact hit
// rate and zero recompiles, bit-identically.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	n := int64(len(kernels.All()))

	a, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold := sweep(t, a)
	am := a.Snapshot()
	if am.Artifacts.Compiles != 2*n { // one artifact + one baseline per kernel
		t.Fatalf("cold sweep: %d compiles, want %d", am.Artifacts.Compiles, 2*n)
	}
	if am.Store == nil || am.Store.Entries != 2*n {
		t.Fatalf("store after cold sweep: %+v, want %d entries", am.Store, 2*n)
	}

	// "Restart": a fresh process image — empty memory cache, same store.
	b, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm := sweep(t, b)
	bm := b.Snapshot()
	if bm.Artifacts.Compiles != 0 {
		t.Errorf("warm restart recompiled %d times, want 0", bm.Artifacts.Compiles)
	}
	if bm.Artifacts.DiskHits != 2*n {
		t.Errorf("warm restart: %d disk hits, want %d", bm.Artifacts.DiskHits, 2*n)
	}
	if bm.Artifacts.HitRate < 0.9 {
		t.Errorf("warm restart artifact hit rate %.2f, want >= 0.90", bm.Artifacts.HitRate)
	}
	for name, got := range warm {
		if got != cold[name] {
			t.Errorf("%s: warm result %v differs from cold %v", name, got, cold[name])
		}
	}
}

// TestCorruptStoreEntryRecompiled: flip a byte in every committed entry;
// the next daemon must detect the corruption, evict, recompile with
// identical results, and leave a clean store behind for the daemon after.
func TestCorruptStoreEntryRecompiled(t *testing.T) {
	dir := t.TempDir()
	req := RunRequest{Kernel: "sphot-1", Cores: 2}

	a, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	code, want, _ := postRun(t, newServerOn(t, a), req)
	if code != 200 {
		t.Fatalf("cold run: %d", code)
	}

	// Bit-flip the last byte (payload territory) of every entry.
	flipped := 0
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".art") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0xff
		flipped++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil || flipped != 2 {
		t.Fatalf("corrupting entries: flipped=%d err=%v", flipped, err)
	}

	b, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	code, got, errMsg := postRun(t, newServerOn(t, b), req)
	if code != 200 {
		t.Fatalf("run against corrupt store: %d (%s); corruption must cost a recompile, not the request", code, errMsg)
	}
	if got.Cycles != want.Cycles || got.SeqCycles != want.SeqCycles {
		t.Errorf("recompiled result differs: %+v vs %+v", got, want)
	}
	bm := b.Snapshot()
	if bm.Store.Corrupt != 2 {
		t.Errorf("store counted %d corrupt entries, want 2", bm.Store.Corrupt)
	}
	if bm.Artifacts.Compiles != 2 {
		t.Errorf("%d compiles after corruption, want 2", bm.Artifacts.Compiles)
	}

	// The recompile overwrote the bad entries: a third daemon warm-starts.
	c, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := postRun(t, newServerOn(t, c), req); code != 200 {
		t.Fatalf("run on healed store: %d", code)
	}
	cm := c.Snapshot()
	if cm.Artifacts.Compiles != 0 || cm.Artifacts.DiskHits != 2 {
		t.Errorf("healed store: %d compiles / %d disk hits, want 0/2", cm.Artifacts.Compiles, cm.Artifacts.DiskHits)
	}
}

// TestCrashMidFillInvisible: temp files from a daemon killed mid-Put must
// never surface as entries, and the next Open sweeps them from disk.
func TestCrashMidFillInvisible(t *testing.T) {
	dir := t.TempDir()
	// Simulate the wreckage: a partially-written temp file in a fan-out
	// subdirectory, exactly where Put stages them.
	sub := filepath.Join(dir, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "tmp-deadbeef"), []byte("half-written artifac"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Snapshot(); m.Store == nil || m.Store.Entries != 0 {
		t.Errorf("temp wreckage surfaced as entries: %+v", m.Store)
	}
	var tmps []string
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(filepath.Base(path), "tmp-") {
			tmps = append(tmps, path)
		}
		return nil
	})
	if len(tmps) != 0 {
		t.Errorf("temp files survived Open: %v", tmps)
	}
	// The daemon is fully functional on the swept store.
	if code, _, errMsg := postRun(t, newServerOn(t, s), RunRequest{Kernel: "irs-1", Cores: 2}); code != 200 {
		t.Fatalf("run after sweep: %d (%s)", code, errMsg)
	}
}

// TestStoreDirUnopenable: a store directory that cannot be created is a
// startup error, not a silent memory-only daemon.
func TestStoreDirUnopenable(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{StoreDir: filepath.Join(file, "sub")}); err == nil {
		t.Fatal("New succeeded with an unopenable store dir")
	}
}

// TestMemoryAndDiskHitsShareOneShape: for one address, the artifact a
// memory hit returns and the one a disk hit restores have the same
// non-nil fields, and they run bit-identically.
func TestMemoryAndDiskHitsShareOneShape(t *testing.T) {
	dir := t.TempDir()
	k, err := kernels.ByName("lammps-2")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(4)

	a, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.run.ArtifactContext(context.Background(), k, opt); err != nil {
		t.Fatal(err)
	}
	mem, memAddr, hit, err := a.run.ArtifactContext(context.Background(), k, opt)
	if err != nil || !hit {
		t.Fatalf("memory lookup: hit=%v err=%v", hit, err)
	}

	b, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	disk, diskAddr, _, err := b.run.ArtifactContext(context.Background(), k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m := b.Snapshot(); m.Artifacts.DiskHits != 1 || m.Artifacts.Compiles != 0 || diskAddr != memAddr {
		t.Fatalf("second daemon: %d disk hits, %d compiles, address %s vs %s; want a disk hit of one address",
			m.Artifacts.DiskHits, m.Artifacts.Compiles, diskAddr, memAddr)
	}

	mv, dv := reflect.ValueOf(mem).Elem(), reflect.ValueOf(disk).Elem()
	for i := 0; i < mv.NumField(); i++ {
		f := mv.Type().Field(i)
		if f.IsExported() && f.Type.Kind() == reflect.Pointer && mv.Field(i).IsNil() != dv.Field(i).IsNil() {
			t.Errorf("%s: memory hit nil=%v, disk hit nil=%v", f.Name, mv.Field(i).IsNil(), dv.Field(i).IsNil())
		}
	}
	want, err := mem.Run(mem.MachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := disk.Run(disk.MachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disk hit ran differently:\n%+v\nmemory hit:\n%+v", got, want)
	}
}
