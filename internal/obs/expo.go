package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus-style text exposition. Registry names use friendly dotted
// forms internally; exposition sanitizes them ("serve.panics" →
// "serve_panics") and writes each family once: a # HELP line with the
// declared help text, a # TYPE line, then its series. Histograms get the
// standard _bucket/_sum/_count series, plus estimated p50/p95/p99 as a
// companion <family>_quantile gauge family so dashboards get quantiles
// without server-side PromQL.

// quantiles reported for every histogram family.
var expoQuantiles = []struct {
	label string
	q     float64
}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}}

// sanitizeName maps a registry name to a legal Prometheus metric name.
func sanitizeName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitSeries separates a series name into its family and label block:
// `phase_seconds{phase="tidy"}` → ("phase_seconds", `phase="tidy"`).
func splitSeries(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	family = name[:i]
	labels = strings.TrimSuffix(name[i+1:], "}")
	return family, labels
}

// joinLabels merges existing labels with one extra pair into a rendered
// label block (with braces), or "" when empty.
func joinLabels(labels, extraKey, extraVal string) string {
	var parts []string
	if labels != "" {
		parts = append(parts, labels)
	}
	if extraKey != "" {
		parts = append(parts, fmt.Sprintf("%s=%q", extraKey, extraVal))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// exemplarSuffix renders a bucket's exemplar as an OpenMetrics-style
// comment suffix (` # {trace_id="..."} value`), or "" without one. The
// suffix rides after the sample value, so whitespace-splitting scrape
// parsers that read the first two fields are unaffected.
func exemplarSuffix(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s", e.TraceID.String(), formatFloat(e.Value))
}

// writeHeader writes a family's # HELP and # TYPE lines.
func writeHeader(b *strings.Builder, name, help string, k kind) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, k)
}

// WritePrometheus writes every declared series of the registry in the
// Prometheus text exposition format: counters, then gauges, then
// histograms as _bucket/_sum/_count plus a <family>_quantile gauge family
// with p50/p95/p99 estimates. Families and their series are sorted, so
// scrapes are diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	v := r.values()
	var b strings.Builder
	for _, f := range declared.families {
		writeHeader(&b, f.name, f.help, f.kind)
		switch f.kind {
		case kindCounter:
			for _, s := range f.series {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, joinLabels(s.labels, "", ""), v.counters[s.index].Load())
			}
		case kindGauge:
			for _, s := range f.series {
				val := 0.0
				if fn := v.gauges[s.index].Load(); fn != nil {
					val = (*fn)()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, joinLabels(s.labels, "", ""), formatFloat(val))
			}
		case kindHistogram:
			writeHistograms(&b, f, v)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistograms writes one histogram family and its quantile family
// from a single snapshot per series, so the two agree within a scrape.
func writeHistograms(b *strings.Builder, f *family, v *values) {
	snaps := make([]HistogramSnapshot, len(f.series))
	for i, s := range f.series {
		sn := v.hists[s.index].Snapshot()
		snaps[i] = sn
		var cum int64
		for j, bound := range sn.Bounds {
			cum += sn.Counts[j]
			fmt.Fprintf(b, "%s_bucket%s %d%s\n",
				f.name, joinLabels(s.labels, "le", formatFloat(bound)), cum,
				exemplarSuffix(sn.Exemplars[j]))
		}
		fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name, joinLabels(s.labels, "le", "+Inf"), sn.Count,
			exemplarSuffix(sn.Exemplars[len(sn.Bounds)]))
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, joinLabels(s.labels, "", ""), formatFloat(sn.Sum))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, joinLabels(s.labels, "", ""), sn.Count)
	}
	writeHeader(b, f.name+"_quantile", "Estimated p50, p95 and p99 of "+f.name+".", kindGauge)
	for i, s := range f.series {
		for _, eq := range expoQuantiles {
			fmt.Fprintf(b, "%s_quantile%s %s\n",
				f.name, joinLabels(s.labels, "quantile", eq.label), formatFloat(snaps[i].Quantile(eq.q)))
		}
	}
}
