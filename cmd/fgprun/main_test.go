package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden pins got against testdata/name; -update rewrites the file.
// The simulator and compiler are fully deterministic, so whole-invocation
// output is stable byte-for-byte.
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

// TestRunGolden pins the full fgprun output for one kernel per application
// suite, verification enabled — so each run also re-checks the compiled
// kernel against the reference interpreter.
func TestRunGolden(t *testing.T) {
	for _, kernel := range []string{"lammps-1", "irs-1", "umt2k-1", "sphot-1"} {
		kernel := kernel
		t.Run(kernel, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-kernel", kernel, "-cores", "4"}, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
			}
			if errb.Len() != 0 {
				t.Errorf("unexpected stderr: %s", errb.String())
			}
			checkGolden(t, "golden_"+kernel+".txt", out.Bytes())
		})
	}
}

func TestRunBadInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
		code int
	}{
		{"no kernel", nil, "missing -kernel", 1},
		{"unknown kernel", []string{"-kernel", "nope-1"}, "nope-1", 1},
		{"bad flag", []string{"-no-such-flag"}, "flag provided but not defined", 2},
		// The engine is checked before the kernel is even resolved, so
		// nothing is compiled for a typo.
		{"unknown engine", []string{"-kernel", "nope-1", "-engine", "burst"},
			`unknown engine "burst" (have [threaded reference])`, 2},
		{"unknown partitioner", []string{"-kernel", "nope-1", "-partitioner", "bogus"},
			`unknown partitioner "bogus" (have [heuristic search])`, 2},
		{"unknown trace format", []string{"-kernel", "nope-1", "-trace-format", "bogus"},
			`unknown trace format "bogus" (have text, perfetto, report)`, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != c.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, c.code, errb.String())
			}
			if !strings.Contains(errb.String(), c.want) {
				t.Errorf("stderr %q does not mention %q", errb.String(), c.want)
			}
		})
	}
}

// TestRunReferenceEngineMatchesGolden: the reference engine reproduces the
// default engine's golden report byte for byte.
func TestRunReferenceEngineMatchesGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-kernel", "sphot-1", "-cores", "4", "-engine", "reference"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	checkGolden(t, "golden_sphot-1.txt", out.Bytes())
}

// TestRunTraceTruncation checks the -trace timeline respects its line limit.
func TestRunTraceTruncation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-kernel", "sphot-1", "-cores", "2", "-trace", "5", "-verify=false"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	head := s[:strings.Index(s, "--- end of trace ---")]
	if got := strings.Count(head, "\n"); got != 5 {
		t.Errorf("trace printed %d lines, want 5", got)
	}
}

// TestRunTraceFlagsShareOneRun: -trace and -trace-out together print the
// timeline -trace prints alone and write the file -trace-out writes alone,
// from the one recorded run that also verifies.
func TestRunTraceFlagsShareOneRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	invoke := func(args ...string) (string, []byte) {
		t.Helper()
		var out, errb bytes.Buffer
		args = append([]string{"-kernel", "sphot-1", "-cores", "2"}, args...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errb.String())
		}
		data, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		os.Remove(path)
		return out.String(), data
	}
	traceOut := []string{"-trace-out", path, "-trace-format", "perfetto"}
	both, bothFile := invoke(append(traceOut, "-trace", "5")...)
	alone, aloneFile := invoke(traceOut...)
	timeline, _ := invoke("-trace", "5")
	traceLine, _, _ := strings.Cut(alone, "\n")
	if want := traceLine + "\n" + timeline; both != want {
		t.Errorf("-trace 5 -trace-out printed\n%s\nwant\n%s", both, want)
	}
	if len(aloneFile) == 0 || !bytes.Equal(bothFile, aloneFile) {
		t.Errorf("-trace 5 -trace-out wrote %d bytes, -trace-out alone %d, want the same file",
			len(bothFile), len(aloneFile))
	}
}

// TestRunTextTraceCountsItsLines: a text trace records only the retires it
// prints, so the event count fgprun reports for -trace-out F -trace-format
// text is F's line count.
func TestRunTextTraceCountsItsLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"-kernel", "umt2k-6", "-cores", "4", "-trace-out", path, "-trace-format", "text"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(out.String(), "\n")
	_, count, _ := strings.Cut(line, "(text, ")
	var events int
	if _, err := fmt.Sscanf(count, "%d events)", &events); err != nil {
		t.Fatalf("no event count in %q: %v", line, err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines == 0 || events != lines {
		t.Errorf("%q for a %d-line text trace", line, lines)
	}
}
