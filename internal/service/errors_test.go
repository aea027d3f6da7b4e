// Request tests for the failure-path contract: every malformed inline-IR
// shape that would panic an in-process constructor must come back as a
// clean 400; kernels that are well-formed but not runnable (verifier
// rejection, deadlock, semantic trap) are 422 with bounded detail; and a
// panic anywhere in the pipeline costs the client one 400, never a worker.

package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fgp/internal/artcache"
	"fgp/internal/ir"
	"fgp/internal/sim"
	"fgp/internal/verify"
)

// postRaw sends a raw body to /v1/run and returns status and decoded
// error envelope (zero-valued on 2xx).
func postRaw(t *testing.T, ts *httptest.Server, body string) (int, errorBody) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if resp.StatusCode != http.StatusOK {
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatalf("non-2xx body is not the error envelope: %v\n%s", err, data)
		}
	}
	return resp.StatusCode, eb
}

// irBody wraps a fragment of loop JSON into a full /v1/run body with the
// boilerplate (bounds, arrays, scalars) filled in.
func irBody(bodyStmts string) string {
	return fmt.Sprintf(`{"cores":2,"ir":{"name":"adv","index":"i","start":0,"end":8,"step":1,
		"arrays":[{"name":"a","kind":"f64","f64":[1,2,3,4,5,6,7,8]},
		          {"name":"n","kind":"i64","i64":[1,2,3,4,5,6,7,8]}],
		"scalars":[{"name":"s","kind":"f64","f64":2.5},{"name":"k","kind":"i64","i64":3}],
		"body":[%s]}}`, bodyStmts)
}

// TestRunMalformedIRPanicSites sends one adversarial inline-IR request per
// kind-check that panics in the in-process constructors (ir/expr.go,
// ir/stmt.go, ir/builder.go, outline/emit.go). The wire decoder must turn
// every one into a 400 — never a 500, a dropped connection, or a wedged
// worker — and the server must still serve a healthy request afterwards.
func TestRunMalformedIRPanicSites(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string // the panic site class the input aims at
		body string
	}{
		{"expr.go load index kind", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"f64","expr":{"load":{"array":"a","kind":"f64","index":{"f64":1.5}}}}}`)},
		{"expr.go bin operand kinds differ", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"f64","expr":{"bin":{"op":"add","l":{"f64":1},"r":{"i64":1}}}}}`)},
		{"expr.go bin int-only op on floats", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"f64","expr":{"bin":{"op":"rem","l":{"f64":1},"r":{"f64":2}}}}}`)},
		{"expr.go un not on float", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"i64","expr":{"un":{"op":"not","x":{"f64":1}}}}}`)},
		{"expr.go un sqrt on int", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"f64","expr":{"un":{"op":"sqrt","x":{"i64":4}}}}}`)},
		{"expr.go cvtif on float", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"f64","expr":{"un":{"op":"cvtif","x":{"f64":1}}}}}`)},
		{"expr.go cvtfi on int", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"i64","expr":{"un":{"op":"cvtfi","x":{"i64":1}}}}}`)},
		{"stmt.go store index kind", irBody(
			`{"line":1,"assign":{"array":"a","kind":"f64","index":{"f64":0.5},"expr":{"f64":1}}}`)},
		{"stmt.go store value kind", irBody(
			`{"line":1,"assign":{"array":"a","kind":"f64","index":{"i64":0},"expr":{"i64":7}}}`)},
		{"builder.go undefined temp", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"f64","expr":{"temp":"ghost","kind":"f64"}}}`)},
		{"builder.go redefinition with different kind", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"f64","expr":{"f64":1}}},
			 {"line":2,"assign":{"temp":"x","kind":"i64","expr":{"i64":2}}}`)},
		{"builder.go assign kind disagrees with expr", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"f64","expr":{"i64":1}}}`)},
		{"emit.go unknown array", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"f64","expr":{"load":{"array":"ghost","kind":"f64","index":{"i64":0}}}}}`)},
		{"emit.go array/scalar kind confusion", irBody(
			`{"line":1,"assign":{"temp":"x","kind":"i64","expr":{"load":{"array":"a","kind":"i64","index":{"i64":0}}}}}`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, eb := postRaw(t, ts, c.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (error %q)", code, eb.Error)
			}
			if eb.Error == "" {
				t.Error("400 carried no diagnostic")
			}
		})
	}
	// The daemon is still healthy after the adversarial batch.
	if code, _, errMsg := postRun(t, ts, RunRequest{Kernel: "irs-1", Cores: 2}); code != 200 {
		t.Fatalf("healthy request after adversarial batch: %d (%s)", code, errMsg)
	}
}

// TestRunVerifierRejectionReturns422: a configuration the static verifier
// rejects at compile time (lammps-3 with 2-slot queues deadlocks) must be
// a 422 carrying the structured diagnostics, not a 500 with a state dump.
func TestRunVerifierRejectionReturns422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, eb := postRaw(t, ts, `{"kernel":"lammps-3","cores":4,"queue_len":2}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (error %q)", code, eb.Error)
	}
	if !strings.Contains(eb.Error, "verify") {
		t.Errorf("error %q does not mention the verifier", eb.Error)
	}
	if len(eb.Diagnostics) == 0 {
		t.Fatal("422 carried no structured diagnostics")
	}
	for _, d := range eb.Diagnostics {
		if d.Check == "" || d.Msg == "" {
			t.Errorf("diagnostic missing check or message: %+v", d)
		}
	}
	if len(eb.Error) > maxErrorBytes+64 {
		t.Errorf("error text not bounded: %d bytes", len(eb.Error))
	}
}

// TestRunTrapReturns422: a well-formed kernel whose own semantics trap
// (division by zero) is the kernel's fault, not the server's.
func TestRunTrapReturns422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	b := ir.NewBuilder("div0", "i", 0, 8, 1)
	b.ArrayI("n", []int64{1, 2, 3, 4, 5, 6, 7, 8})
	z := b.ScalarI("z", 0)
	x := b.Def("x", ir.DivE(ir.LDI("n", b.Idx()), z))
	b.StoreI("n", b.Idx(), x)
	wire, err := ir.MarshalLoop(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	code, _, errMsg := postRun(t, ts, RunRequest{IR: wire, Cores: 2})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (error %q)", code, errMsg)
	}
	if !strings.Contains(errMsg, "division by zero") {
		t.Errorf("error %q does not carry the trap diagnostic", errMsg)
	}
}

// TestFailRunMapping unit-tests the error→status mapping, including the
// dump-size bound on simulator deadlock errors.
func TestFailRunMapping(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		err    error
		status int
		want   string
	}{
		{"deadlock dump bounded",
			fmt.Errorf("%w\n%s", sim.ErrDeadlock, strings.Repeat("core state line\n", 500)),
			http.StatusUnprocessableEntity, "truncated"},
		{"verifier rejection",
			fmt.Errorf("compile: %w", &verify.Error{Diags: []verify.Diagnostic{
				{Check: "deadlock", Core: 1, PC: 3, Queue: 2, Edge: 4, Msg: "stuck"}}}),
			http.StatusUnprocessableEntity, "deadlock"},
		{"panic boundary",
			fmt.Errorf("compile: %w", &artcache.PanicError{Val: "index out of range"}),
			http.StatusBadRequest, "internal panic"},
		{"infrastructure failure",
			fmt.Errorf("disk on fire"),
			http.StatusInternalServerError, "disk on fire"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.failRun(rec, "stage", c.err)
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d", rec.Code, c.status)
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(eb.Error, c.want) {
				t.Errorf("error %q does not contain %q", eb.Error, c.want)
			}
			if len(eb.Error) > maxErrorBytes+64 {
				t.Errorf("error text not bounded: %d bytes", len(eb.Error))
			}
		})
	}
}
