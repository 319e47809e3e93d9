package runrec

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
	"testing"
)

// renderGolden renders the committed fig19 fixture (a real chopinsim sweep
// at scale 0.03) through WriteReport.
func renderGolden(t *testing.T) string {
	t.Helper()
	rec, err := LoadFile("testdata/golden_fig19.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, rec, "fig19 report"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestReportIsWellFormed validates the report as parseable markup: the
// renderer emits XHTML on purpose so encoding/xml can walk every element.
func TestReportIsWellFormed(t *testing.T) {
	out := renderGolden(t)
	dec := xml.NewDecoder(strings.NewReader(out))
	dec.Strict = true
	dec.Entity = xml.HTMLEntity
	elements := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("report is not well-formed XML: %v", err)
		}
		if _, ok := tok.(xml.StartElement); ok {
			elements++
		}
	}
	if elements < 20 {
		t.Fatalf("suspiciously small report: %d elements", elements)
	}
}

// TestReportRendersSpeedupCurve pins the Fig13/19-style figure: a polyline
// per non-baseline scheme over the GPU-count sweep, markers with tooltips,
// the dashed parity line, and a legend naming each scheme.
func TestReportRendersSpeedupCurve(t *testing.T) {
	out := renderGolden(t)
	if !strings.Contains(out, "speedup vs GPU count") {
		t.Fatal("missing speedup figure heading")
	}
	// fig19 runs 5 schemes against Duplication: 5 polylines.
	if got := strings.Count(out, "<polyline"); got != 5 {
		t.Fatalf("%d polylines, want 5", got)
	}
	for _, scheme := range []string{"GPUpd", "IdealGPUpd", "CHOPIN", "CHOPIN+CompSched", "IdealCHOPIN"} {
		if !strings.Contains(out, ">"+scheme+"<") {
			t.Errorf("legend missing scheme %q", scheme)
		}
	}
	// Markers carry native tooltips against the Duplication baseline.
	if !strings.Contains(out, "<title>CHOPIN at 8 GPUs:") || !strings.Contains(out, "vs Duplication</title>") {
		t.Fatal("markers missing tooltips")
	}
	if !strings.Contains(out, `stroke-dasharray="6 4"`) {
		t.Fatal("missing dashed 1.0 baseline")
	}
	// The GPU-count sweep appears on the x axis.
	for _, n := range []string{">2<", ">4<", ">8<", ">16<"} {
		if !strings.Contains(out, n) {
			t.Errorf("x axis missing GPU count %s", n)
		}
	}
	// Every figure ships its table view.
	if !strings.Contains(out, "data table") {
		t.Fatal("missing table view")
	}
}

// TestReportIsSelfContained pins the no-external-assets contract.
func TestReportIsSelfContained(t *testing.T) {
	out := renderGolden(t)
	for _, banned := range []string{"<script", "http://", "https://", "<link", "@import"} {
		// The xmlns attribute is the one allowed URL.
		stripped := strings.ReplaceAll(out, `xmlns="http://www.w3.org/1999/xhtml"`, "")
		if strings.Contains(stripped, banned) {
			t.Errorf("report references external content: %q", banned)
		}
	}
	// Dark mode ships via CSS custom properties, not an extra stylesheet.
	if !strings.Contains(out, "prefers-color-scheme: dark") {
		t.Error("missing dark-mode palette")
	}
}

// TestReportPhaseBreakdown checks the stacked-bar figure exists for the
// max-GPU cut of the sweep.
func TestReportPhaseBreakdown(t *testing.T) {
	out := renderGolden(t)
	if !strings.Contains(out, "cycle breakdown by phase") {
		t.Fatal("missing phase figure")
	}
	if !strings.Contains(out, "<rect") {
		t.Fatal("phase figure has no bars")
	}
}

// TestReportFaultTable: fault-free records omit the fault section; records
// with fault metrics render it.
func TestReportFaultTable(t *testing.T) {
	clean := renderGolden(t)
	if strings.Contains(clean, "fault and recovery costs") {
		t.Fatal("fault-free record should omit the fault table")
	}
	rec := &Record{Schema: SchemaVersion, Rows: []Row{
		sampleRow("faults", "", "CHOPIN", "cod2", 8, 1000),
	}}
	rec.Rows[0].Metrics["fault_retries"] = 3
	rec.Rows[0].Metrics["recovery_cycles"] = 420
	var buf bytes.Buffer
	if err := WriteReport(&buf, rec, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fault and recovery costs") {
		t.Fatal("faulty record missing the fault table")
	}
}

// TestReportLinkHeatmap: records without fabric telemetry omit the link
// heatmap (the golden fig19 record predates it); records carrying
// fabric_links plus link_util:<id> metrics render the heat strip with
// per-link cells on a shared opacity scale, the digest table — and stay
// well-formed XML.
func TestReportLinkHeatmap(t *testing.T) {
	clean := renderGolden(t)
	if strings.Contains(clean, "fabric link utilization") {
		t.Fatal("record without fabric telemetry should omit the link heatmap")
	}

	rec := &Record{Schema: SchemaVersion, Rows: []Row{
		sampleRow("single", "", "CHOPIN", "cod2", 8, 1000),
	}}
	m := rec.Rows[0].Metrics
	m["fabric_links"] = 8
	m["fabric_active_links"] = 2
	m["max_link_util"] = 0.5
	m["mean_hops"] = 1
	m["p50_transfer_latency"] = 300
	m["p99_transfer_latency"] = 400
	m["queued_cycles"] = 100
	m["reroutes"] = 0
	m["link_util:1"] = 0.5
	m["link_util:3"] = 0.25
	m["link_util:99"] = 1.0 // out of range for 8 links: must be ignored
	var buf bytes.Buffer
	if err := WriteReport(&buf, rec, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fabric link utilization",
		"per-link utilization heatmap",
		`fill-opacity="1.000"`, // link 1 at the shared max (0.5/0.5)
		`fill-opacity="0.500"`, // link 3 at half the max (0.25/0.5)
		"link 1: 50.0% busy",
		"link 3: 25.0% busy",
		"hottest link (50.0% busy)",
		"<th>mean hops</th>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("link heatmap missing %q", want)
		}
	}
	// Two heat cells only: the idle links and the out-of-range id draw nothing.
	if got := strings.Count(out, "% busy</title>"); got != 2 {
		t.Errorf("%d heat cells, want 2", got)
	}
	dec := xml.NewDecoder(strings.NewReader(out))
	dec.Strict = true
	dec.Entity = xml.HTMLEntity
	for {
		_, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("report with link heatmap is not well-formed XML: %v", err)
		}
	}
}

// TestReportBottleneckSection: records without causal metrics omit the
// bottleneck figure (the golden fig19 record predates the causal engine);
// records carrying attr_* metrics render the stacked bar and the legend, no
// what-if table, and stay well-formed XML.
func TestReportBottleneckSection(t *testing.T) {
	clean := renderGolden(t)
	if strings.Contains(clean, "causal bottleneck attribution") {
		t.Fatal("record without causal metrics should omit the bottleneck figure")
	}

	rec := &Record{Schema: SchemaVersion, Rows: []Row{
		sampleRow("single", "", "CHOPIN", "cod2", 8, 1000),
	}}
	m := rec.Rows[0].Metrics
	m["causal_makespan"] = 1000
	m["causal_critical_path"] = 700
	m["attr_geometry"] = 100
	m["attr_raster"] = 400
	m["attr_composition"] = 150
	m["attr_transfer"] = 50
	m["attr_queueing"] = 300
	m["attr_retry"] = 0
	var buf bytes.Buffer
	if err := WriteReport(&buf, rec, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"causal bottleneck attribution",
		"composition", "queueing",
		"0.150 of causal makespan", // the composition segment tooltip
	} {
		if !strings.Contains(out, want) {
			t.Errorf("bottleneck section missing %q", want)
		}
	}
	if strings.Contains(out, "what-if") {
		t.Error("bottleneck section renders a what-if heading")
	}
	dec := xml.NewDecoder(strings.NewReader(out))
	dec.Strict = true
	dec.Entity = xml.HTMLEntity
	for {
		_, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("report with bottleneck figure is not well-formed XML: %v", err)
		}
	}
}
