package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunBadInvocations pins the usage failures: each exits 2 with a
// message naming the input (and the accepted values, where there is a
// set), before any experiment runs — so stdout stays empty.
func TestRunBadInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // stderr substrings
	}{
		{"unknown experiment", []string{"-exp", "fig99"},
			[]string{`unknown experiment "fig99"`, "table1, fig12,", "attribution, all"}},
		{"unknown engine", []string{"-exp", "fig12", "-engine", "burst"},
			[]string{`unknown engine "burst" (have [threaded reference])`}},
		{"removed reference flag", []string{"-reference"},
			[]string{"flag provided but not defined: -reference"}},
		{"bad latency list", []string{"-exp", "fig13", "-lat", "5,x"},
			[]string{"-lat", `"5,x"`}},
		{"unknown trace format", []string{"-exp", "attribution", "-trace-format", "bogus"},
			[]string{`unknown trace format "bogus" (have text, perfetto, report)`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			for _, w := range c.want {
				if !strings.Contains(errb.String(), w) {
					t.Errorf("stderr %q does not mention %q", errb.String(), w)
				}
			}
			if out.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", out.String())
			}
		})
	}
}

// TestRunOneExperiment runs the one experiment that compiles nothing, as
// text and as JSON.
func TestRunOneExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "Table I:") || strings.Contains(out.String(), "Fig 12") {
		t.Errorf("-exp table1 printed:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-exp", "table1", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("-json: exit %d, stderr: %s", code, errb.String())
	}
	var doc map[string][]map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(doc) != 1 || len(doc["table1"]) != 18 {
		t.Errorf("-json document has keys %v and %d table1 rows, want only table1 with 18", keys(doc), len(doc["table1"]))
	}
}

func keys(m map[string][]map[string]any) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
