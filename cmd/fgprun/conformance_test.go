package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fgp/internal/kernels"
	"fgp/internal/service"
)

// TestRunConformsToService: fgprun, which compiles through the library,
// reports the sequential and parallel cycles an in-process fgpd's /v1/run
// reports for every tier-1 kernel at 2 and 4 cores — fgpd compiles on the
// experiments Runner's cached fronts and profiles, fgprun on its own.
func TestRunConformsToService(t *testing.T) {
	srv, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, k := range kernels.All() {
		for _, cores := range []int{2, 4} {
			var out, errb bytes.Buffer
			args := []string{"-kernel", k.Name, "-cores", strconv.Itoa(cores), "-verify=false"}
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("%s/%d: exit %d, stderr:\n%s", k.Name, cores, code, errb.String())
			}
			seq, par := cyclesLine(t, out.String(), "sequential"), cyclesLine(t, out.String(), "parallel")

			body, _ := json.Marshal(service.RunRequest{Kernel: k.Name, Cores: cores})
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var rr service.RunResponse
			err = json.NewDecoder(resp.Body).Decode(&rr)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("%s/%d: /v1/run: %d %v", k.Name, cores, resp.StatusCode, err)
			}
			if seq != rr.SeqCycles || par != rr.Cycles {
				t.Errorf("%s/%d: fgprun %d sequential / %d parallel cycles, /v1/run %d / %d",
					k.Name, cores, seq, par, rr.SeqCycles, rr.Cycles)
			}
		}
	}
}

// cyclesLine reads the count from fgprun's "<label>  N cycles" line.
func cyclesLine(t *testing.T, out, label string) int64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, label+" "); ok {
			var n int64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d cycles", &n); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no %q line in output:\n%s", label, out)
	return 0
}
