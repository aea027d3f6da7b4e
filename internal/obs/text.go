// The text trace, a thin adapter over the typed event stream: one line per
// retired instruction in canonical order,
//
//	t=<start>..<end> core=<id> pc=<pc> <op>
//
// the format fgprun -trace prints. Queue stalls show up as gaps between
// one line's end and the next line's start.

package obs

import (
	"fmt"
	"io"
)

// TextSink renders retire events in the text trace's line format.
type TextSink struct {
	w   io.Writer
	err error
}

// NewText returns a sink writing text trace lines to w, one Write per
// line. Callers that need buffering wrap w themselves.
func NewText(w io.Writer) *TextSink { return &TextSink{w: w} }

// Mask implements Sink: the text format only shows retires.
func (t *TextSink) Mask() Mask { return MRetire }

// Begin implements Sink.
func (t *TextSink) Begin(Meta) {}

// Emit implements Sink.
func (t *TextSink) Emit(e Event) {
	if t.err != nil || e.Kind != KRetire {
		return
	}
	_, t.err = fmt.Fprintf(t.w, "t=%d..%d core=%d pc=%d %s\n",
		e.Time, e.End, e.Core, e.PC, OpName(e.Op))
}

// Close implements Sink, reporting the first write error.
func (t *TextSink) Close() error { return t.err }
