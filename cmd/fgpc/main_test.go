package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/... -update` to create golden files)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update if the change is intended)\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// TestCompileReportGolden pins the compiler report for one kernel per
// application suite at the paper's 4-core configuration.
func TestCompileReportGolden(t *testing.T) {
	for _, kernel := range []string{"lammps-1", "irs-1", "umt2k-1", "sphot-1"} {
		kernel := kernel
		t.Run(kernel, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-kernel", kernel, "-cores", "4", "-dump", "report"}, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
			}
			checkGolden(t, "golden_report_"+kernel+".txt", out.Bytes())
		})
	}
}

// TestListGolden pins the -list catalog (names, suites, paper numbers).
func TestListGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	checkGolden(t, "golden_list.txt", out.Bytes())
}

func TestBadInvocations(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "missing -kernel") {
		t.Errorf("stderr %q does not mention the missing flag", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-kernel", "nope-1"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}

	// Unknown names are usage errors, caught before the kernel is loaded
	// (nope-1 would fail with exit 1) and listing the accepted values.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-kernel", "nope-1", "-dump", "bogus"}, `unknown dump "bogus" (have ir, tac, fibers, parts, report, asm)`},
		{[]string{"-kernel", "nope-1", "-dump", "report,bogus"}, `unknown dump "bogus"`},
		{[]string{"-kernel", "nope-1", "-partitioner", "bogus"}, `unknown partitioner "bogus" (have [heuristic search])`},
		{[]string{"-kernel", "sphot-1", "-cores", "0"}, "-cores must be in [1, 181] (got 0)"},
		{[]string{"-kernel", "sphot-1", "-cores", "182"}, "-cores must be in [1, 181] (got 182)"},
		{[]string{"-kernel", "sphot-1", "-partitioner", "search", "-search-budget", "-1"},
			"-search-budget must be >= 0, 0 meaning the default (got -1)"},
	} {
		out.Reset()
		errb.Reset()
		if code := run(c.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", c.args, code, errb.String())
		}
		if !strings.Contains(errb.String(), c.want) || out.Len() != 0 {
			t.Errorf("%v: stderr %q, stdout %q; want %q on stderr only", c.args, errb.String(), out.String(), c.want)
		}
	}
}

// TestDumpStagesRun sanity-checks every dump stage produces output (content
// is pinned elsewhere; this guards the flag plumbing).
func TestDumpStagesRun(t *testing.T) {
	for _, stage := range []string{"ir", "tac", "fibers", "parts", "asm"} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-kernel", "sphot-1", "-cores", "2", "-dump", stage}, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
			}
			if out.Len() == 0 {
				t.Errorf("dump %q produced no output", stage)
			}
		})
	}
}
