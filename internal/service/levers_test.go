// Lever-presence conformance: the machine levers on /v1/run must
// distinguish "not sent" from a literal zero. transfer_latency 0 is a real
// machine (instant transfers) with its own cycle count; it is applied at
// simulation time, so it shares the heuristic artifact's address, and it
// is part of the address only under the search partitioner. Unset, the
// legacy `queue_len: 0` spelling, and an explicit paper default are all
// one canonical address.

package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// rawJSON feeds a hand-written body through postRun's marshal step
// unchanged, so tests can spell field presence exactly.
func rawJSON(s string) json.RawMessage { return json.RawMessage(s) }

func TestZeroTransferLatencyIsARealLever(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	post := func(body string) *RunResponse {
		t.Helper()
		code, resp, errMsg := postRun(t, ts, rawJSON(body))
		if code != 200 {
			t.Fatalf("POST %s: %d %s", body, code, errMsg)
		}
		return resp
	}

	unset := post(`{"kernel":"umt2k-4","cores":4}`)
	if unset.ArtifactAddress == "" {
		t.Fatal("response carries no artifact address")
	}

	// The explicit paper default is the same machine: same canonical
	// address (so the artifact is a cache hit), same cycle count.
	explicitDefault := post(`{"kernel":"umt2k-4","cores":4,"transfer_latency":5}`)
	if explicitDefault.ArtifactAddress != unset.ArtifactAddress {
		t.Errorf("explicit transfer_latency 5 address %s != unset %s",
			explicitDefault.ArtifactAddress, unset.ArtifactAddress)
	}
	if !explicitDefault.CachedArtifact {
		t.Error("explicit paper default recompiled instead of hitting the canonical address")
	}
	if explicitDefault.Cycles != unset.Cycles {
		t.Errorf("explicit default cycles %d != unset %d", explicitDefault.Cycles, unset.Cycles)
	}

	// transfer_latency 0 is a different machine: strictly fewer cycles
	// (umt2k-4 at 4 cores communicates), which also catches a zero decoded
	// as absent.
	zero := post(`{"kernel":"umt2k-4","cores":4,"transfer_latency":0}`)
	if zero.Cycles >= unset.Cycles {
		t.Errorf("transfer_latency 0 cycles %d, want strictly fewer than default %d",
			zero.Cycles, unset.Cycles)
	}

	// A searched partition is scored on the machine it compiles for, so
	// under search the zero latency is part of the address.
	searchUnset := post(`{"kernel":"umt2k-4","cores":4,"partitioner":"search"}`)
	searchZero := post(`{"kernel":"umt2k-4","cores":4,"partitioner":"search","transfer_latency":0}`)
	if searchZero.ArtifactAddress == searchUnset.ArtifactAddress {
		t.Error("search with transfer_latency 0 shares the unset search address; zero was decoded as absent")
	}
}

func TestQueueLenLegacyZeroStaysCanonical(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	post := func(body string) *RunResponse {
		t.Helper()
		code, resp, errMsg := postRun(t, ts, rawJSON(body))
		if code != 200 {
			t.Fatalf("POST %s: %d %s", body, code, errMsg)
		}
		return resp
	}
	unset := post(`{"kernel":"sphot-1","cores":2}`)
	for _, body := range []string{
		`{"kernel":"sphot-1","cores":2,"queue_len":0}`,  // legacy "default" spelling
		`{"kernel":"sphot-1","cores":2,"queue_len":20}`, // explicit paper default
	} {
		r := post(body)
		if r.ArtifactAddress != unset.ArtifactAddress {
			t.Errorf("%s: address %s, want the canonical %s", body, r.ArtifactAddress, unset.ArtifactAddress)
		}
		if !r.CachedArtifact {
			t.Errorf("%s: recompiled instead of hitting the canonical address", body)
		}
	}
	// A real capacity override is its own machine.
	short := post(`{"kernel":"sphot-1","cores":2,"queue_len":4}`)
	if short.ArtifactAddress == unset.ArtifactAddress {
		t.Error("queue_len 4 shares the default content address")
	}
}

func TestLeverBoundsStillRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		body string
		want string
	}{
		{`{"kernel":"irs-1","queue_len":-1}`, "queue_len"},
		{`{"kernel":"irs-1","queue_len":5000}`, "queue_len"},
		{`{"kernel":"irs-1","transfer_latency":-1}`, "transfer_latency"},
		{`{"kernel":"irs-1","transfer_latency":1048577}`, "transfer_latency"},
	} {
		code, eb := postRaw(t, ts, c.body)
		if code != 400 {
			t.Errorf("%s: status %d, want 400", c.body, code)
		}
		if !strings.Contains(eb.Error, c.want) {
			t.Errorf("%s: error %q does not name %s", c.body, eb.Error, c.want)
		}
	}
}
