package sim_test

// The enq→deq pairing audit: the observability layer pairs every dequeue
// event with its enqueue through per-queue sequence numbers (the k-th pop
// receives the k-th push), and the Perfetto exporter draws flow arrows from
// exactly that pairing. Region marks ride the same event stream and fire on
// the completion path of the same Enq/Deq instructions — a mark firing on a
// blocked retry, or an engine resequencing bug, would silently shear the
// pairing. This test runs real kernels on both engines with everything
// enabled and audits the stream itself.

import (
	"fmt"
	"testing"

	"fgp/internal/core"
	"fgp/internal/kernels"
	"fgp/internal/obs"
	"fgp/internal/sim"
)

// TestQueuePairingSurvivesRegionMarks runs kernels with region marks and
// queue telemetry recorded together (plus the queue package's own
// per-pop sequence check and post-run stats audit via DebugEdges) and
// asserts per queue: enqueue and dequeue sequence numbers each count
// 0,1,2,... in stream order, every dequeued sequence was previously
// enqueued, and region events actually interleaved with the queue traffic.
func TestQueuePairingSurvivesRegionMarks(t *testing.T) {
	for _, name := range []string{"sphot-1", "irs-1", "lammps-3"} {
		for _, cores := range []int{2, 4} {
			name, cores := name, cores
			t.Run(fmt.Sprintf("%s/%dcore", name, cores), func(t *testing.T) {
				t.Parallel()
				k, err := kernels.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				a, err := core.Compile(k.Build(), core.DefaultOptions(cores))
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				for _, engine := range sim.Engines() {
					t.Run(engine, func(t *testing.T) {
						cfg := a.MachineConfig()
						cfg.Engine = engine
						cfg.DebugEdges = true // per-pop pairing check + post-run stats audit
						rec := obs.NewRecorder()
						cfg.Sink = rec
						if _, err := a.Run(cfg); err != nil {
							t.Fatalf("run: %v", err)
						}

						nextEnq := map[int32]int32{} // queue id -> expected next enq seq
						nextDeq := map[int32]int32{}
						regions := 0
						for i, e := range rec.Events {
							switch e.Kind {
							case obs.KEnq:
								if e.Seq != nextEnq[e.Queue] {
									t.Fatalf("event %d: enq on q%d has seq %d, want %d",
										i, e.Queue, e.Seq, nextEnq[e.Queue])
								}
								nextEnq[e.Queue]++
							case obs.KDeq:
								if e.Seq != nextDeq[e.Queue] {
									t.Fatalf("event %d: deq on q%d has seq %d, want %d",
										i, e.Queue, e.Seq, nextDeq[e.Queue])
								}
								if e.Seq >= nextEnq[e.Queue] {
									// Canonical order is (Time, Core); with nonzero
									// transfer latency a value is always enqueued at
									// an earlier time than it is dequeued, so its
									// enqueue event must already have passed.
									t.Fatalf("event %d: deq of q%d seq %d precedes its enqueue",
										i, e.Queue, e.Seq)
								}
								nextDeq[e.Queue]++
							case obs.KRegionEnter, obs.KRegionExit:
								regions++
							}
						}
						if len(nextEnq) == 0 {
							t.Fatal("degenerate test: no queue traffic recorded")
						}
						if regions == 0 {
							t.Fatal("degenerate test: no region marks recorded")
						}
						for q, n := range nextEnq {
							if nextDeq[q] != n {
								t.Errorf("q%d: %d enqueues but %d dequeues in a completed run",
									q, n, nextDeq[q])
							}
						}
					})
				}
			})
		}
	}
}
