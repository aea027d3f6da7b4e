package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunBadFlagValues pins fgpd's usage errors: each exits 2 before the
// daemon listens, naming the flag and its accepted range.
func TestRunBadFlagValues(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "-3"}, "-workers must be >= 0"},
		{[]string{"-queue-depth", "-1"}, "-queue-depth must be >= 0"},
		{[]string{"-timeout", "-5s"}, "-timeout must be >= 0"},
		{[]string{"-drain-timeout", "-1s"}, "-drain-timeout must be >= 0"},
		{[]string{"-store-max-bytes", "-1"}, "-store-max-bytes must be >= 0"},
		{[]string{"serve"}, `unexpected argument "serve"`},
		{[]string{"-workers", "2", "extra"}, `unexpected argument "extra"`},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not say %q", c.args, stderr.String(), c.want)
		}
		if strings.Contains(stdout.String(), "listening") {
			t.Errorf("%v: started listening before rejecting its flags", c.args)
		}
	}
}

// TestRunValidFlagsReachListen: valid values (zeros mean defaults) pass
// the checks and fail only where the listen address is refused, with exit 1.
func TestRunValidFlagsReachListen(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workers", "0", "-queue-depth", "0", "-timeout", "0s", "-store-max-bytes", "0", "-addr", "127.0.0.1:-1"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 from the refused listen (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "listen") {
		t.Errorf("stderr %q does not report the listen failure", stderr.String())
	}
}
