package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type of the Prometheus text exposition
// format produced by WriteText.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// textWriter accumulates the first write error so the exposition loop does
// not have to check every Fprintf (the same sticky-error shape as the
// experiments report writer).
type textWriter struct {
	w   io.Writer
	err error
}

func (t *textWriter) printf(format string, args ...any) {
	if t.err == nil {
		_, t.err = fmt.Fprintf(t.w, format, args...)
	}
}

// sample pairs one label signature with its instrument for exposition.
type sample struct {
	sig  string
	inst any
}

// famSnapshot is an immutable copy of one family's metadata and sample
// list, taken under the registry mutex so exposition never reads the live
// order slice or instruments map while register() mutates them.
type famSnapshot struct {
	name, help, kind string
	samples          []sample
}

// WriteText renders every registered metric in the Prometheus text format:
// families sorted by name, one HELP/TYPE header each, samples in
// registration order. Family structure is snapshotted under the registry
// mutex (lazy registration may run concurrently) and instrument values are
// read atomically, so WriteText is safe to call while the engine is
// registering and updating metrics.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]famSnapshot, 0, len(r.families))
	for _, f := range r.families {
		fs := famSnapshot{
			name: f.name, help: f.help, kind: f.kind,
			samples: make([]sample, 0, len(f.order)),
		}
		for _, sig := range f.order {
			fs.samples = append(fs.samples, sample{sig: sig, inst: f.instruments[sig]})
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	tw := &textWriter{w: w}
	for _, f := range fams {
		if f.help != "" {
			tw.printf("# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		tw.printf("# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.samples {
			switch inst := s.inst.(type) {
			case *Counter:
				tw.printf("%s%s %d\n", f.name, s.sig, inst.Value())
			case *Gauge:
				tw.printf("%s%s %s\n", f.name, s.sig, formatFloat(inst.Value()))
			case counterFunc:
				tw.printf("%s%s %d\n", f.name, s.sig, inst())
			case gaugeFunc:
				tw.printf("%s%s %s\n", f.name, s.sig, formatFloat(inst()))
			case *Histogram:
				writeHistogram(tw, f.name, s.sig, inst)
			}
		}
	}
	return tw.err
}

// writeHistogram renders the cumulative _bucket series plus _sum and
// _count for one histogram instrument.
func writeHistogram(tw *textWriter, name, sig string, h *Histogram) {
	cum := h.BucketCounts()
	for i, bound := range h.bounds {
		tw.printf("%s_bucket%s %d\n", name, withLabel(sig, "le", formatFloat(bound)), cum[i])
	}
	tw.printf("%s_bucket%s %d\n", name, withLabel(sig, "le", "+Inf"), cum[len(cum)-1])
	tw.printf("%s_sum%s %s\n", name, sig, formatFloat(h.Sum()))
	tw.printf("%s_count%s %d\n", name, sig, h.Count())
}

// withLabel splices one more label into an existing {..} signature.
func withLabel(sig, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if sig == "" {
		return "{" + extra + "}"
	}
	return sig[:len(sig)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp applies the text-format HELP escapes (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
