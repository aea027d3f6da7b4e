package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunBadFlagValues pins the usage errors: each bad value exits 2
// before anything is generated, and names the flag and its accepted range.
func TestRunBadFlagValues(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-cores", "0"}, "-cores must be >= 1"},
		{[]string{"-cores", "-2"}, "-cores must be >= 1"},
		{[]string{"-seeds", "0"}, "-seeds must be >= 1 unless -duration is set"},
		{[]string{"-seeds", "-5"}, "-seeds must be >= 1 unless -duration is set"},
		{[]string{"-duration", "-1s"}, "-duration must be >= 0"},
		{[]string{"-search-budget", "-1"}, "-search-budget must be >= 0"},
		{[]string{"-trips", "-1"}, "-trips must be >= 0"},
		{[]string{"-stmts", "-1"}, "-stmts must be >= 0"},
		{[]string{"-maxchecks", "-1"}, "-maxchecks must be >= 0"},
		{[]string{"-workers", "-1"}, "-workers must be >= 0"},
		{[]string{"-selftest", "-cores", "0"}, "-cores must be >= 1"},
		{[]string{"-seeds", "3", "extra"}, `unexpected argument "extra"`},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not say %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout before rejecting its flags", c.args, stdout.String())
		}
	}
}

// TestRunBatchChecksKernels: a valid one-seed batch checks that kernel
// and exits 0, and -seeds 0 is accepted when -duration bounds the run,
// which checks at least one chunk of seeds however short it is.
func TestRunBatchChecksKernels(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "1", "-cores", "2", "-out", ""},
		{"-seeds", "0", "-duration", "1ns", "-cores", "1", "-stmts", "1", "-trips", "4", "-out", ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr.String())
		}
		if strings.Contains(stdout.String(), " 0 kernels checked") || !strings.Contains(stdout.String(), "0 mismatches") {
			t.Errorf("%v: stdout %q, want a nonempty batch with 0 mismatches", args, stdout.String())
		}
	}
}
