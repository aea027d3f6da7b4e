// RenderTrace: the one switch behind every CLI's -trace-format flag.

package obs

import (
	"bytes"
	"fmt"
)

// TraceFormats lists the formats RenderTrace accepts, for flag help text.
const TraceFormats = "text, perfetto, report"

// RenderTrace renders one recorded stream in a named format: "text" (the
// legacy trace, one line per retired instruction in the form below, where
// a queue stall shows up as a gap between one line's end and the next
// line's start), "perfetto" (Chrome trace-event JSON, validated against
// the schema before being returned), or "report" (the stall-attribution
// table). Events must be in canonical order.
//
//	t=<start>..<end> core=<id> pc=<pc> <op>
func RenderTrace(format string, meta Meta, events []Event) ([]byte, error) {
	var buf bytes.Buffer
	switch format {
	case "text":
		for _, e := range events {
			if e.Kind == KRetire {
				fmt.Fprintf(&buf, "t=%d..%d core=%d pc=%d %s\n", e.Time, e.End, e.Core, e.PC, OpName(e.Op))
			}
		}
	case "perfetto":
		if err := WritePerfetto(&buf, meta, events); err != nil {
			return nil, err
		}
		if err := ValidatePerfetto(buf.Bytes()); err != nil {
			return nil, fmt.Errorf("obs: perfetto export failed self-validation: %w", err)
		}
	case "report":
		buf.WriteString(BuildReport(meta, events).Format())
	default:
		return nil, fmt.Errorf("obs: unknown trace format %q (want one of: %s)", format, TraceFormats)
	}
	return buf.Bytes(), nil
}
