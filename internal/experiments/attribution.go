// The stall-attribution experiment: where the rest of the package measures
// how fast each kernel gets, this one explains why — recording the full
// observability event stream of one kernel across core counts and
// decomposing every core's cycles into busy time and attributed stalls
// (queue waits, L1 misses, memory-port serialization), plus queue occupancy
// telemetry and the load-imbalance index. It is the analysis the paper
// walks through when discussing why individual kernels in Figures 12–16
// speed up or stall.

package experiments

import (
	"context"
	"fmt"
	"strings"

	"fgp/internal/kernels"
	"fgp/internal/obs"
	"fgp/internal/sim"
)

// AttributionRow is one kernel×cores cell: the speedup, the full stall
// report, and the raw event stream (for -trace-out exports; omitted from
// JSON output, where the report carries the aggregate story).
type AttributionRow struct {
	Kernel  string
	Cores   int
	Speedup float64
	Report  *obs.Report
	Events  []obs.Event `json:"-"`
	Meta    obs.Meta    `json:"-"`
}

// Attribution records one kernel at each core count and builds its stall
// attribution. Rows come back in coreCounts order regardless of worker
// scheduling. Every row resolves its baseline and artifact and runs its
// recorded simulation under ctx, so a caller that gives up stops the
// experiment within one cancellation stride.
func Attribution(ctx context.Context, r *Runner, name string, coreCounts []int) ([]AttributionRow, error) {
	k, err := kernels.ByName(name)
	if err != nil {
		return nil, err
	}
	rows := make([]AttributionRow, len(coreCounts))
	err = r.each(len(coreCounts), func(i int) error {
		cores := coreCounts[i]
		rec := obs.NewRecorder()
		sp, _, _, err := r.speedup(ctx, k, Variant{Cores: cores}, func(cfg *sim.Config) {
			cfg.Sink = rec
		})
		if err != nil {
			return err
		}
		rows[i] = AttributionRow{
			Kernel:  k.Name,
			Cores:   cores,
			Speedup: sp,
			Report:  obs.BuildReport(rec.Meta, rec.Events),
			Events:  rec.Events,
			Meta:    rec.Meta,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatAttribution renders the experiment as the text the CLI prints and
// the golden-report test pins.
func FormatAttribution(rows []AttributionRow) string {
	var sb strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "stall attribution: %s\n", rows[0].Kernel)
	}
	for i := range rows {
		r := &rows[i]
		fmt.Fprintf(&sb, "--- %d core(s), speedup %.2f ---\n", r.Cores, r.Speedup)
		sb.WriteString(r.Report.Format())
	}
	return sb.String()
}
