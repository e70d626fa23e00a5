package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func testRunner() *Runner {
	p := TestParams()
	p.N = 4000
	p.QueriesPerPoint = 1
	p.WarmTicks = 2
	return NewRunner(p)
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := testRunner().Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Page size", "update interval", "polynomial"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7(t *testing.T) {
	rows, err := testRunner().Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Fig7 returned %d rows, want 2", len(rows))
	}
	if rows[0].Method != "FR (exact)" || rows[1].Method != "PA (approx)" {
		t.Errorf("unexpected methods: %+v", rows)
	}
	var buf bytes.Buffer
	if err := PrintFig7(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FR") {
		t.Error("PrintFig7 output malformed")
	}
}

func TestFig8AccuracyShapes(t *testing.T) {
	r := testRunner()
	rows, err := r.Fig8Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(r.P.Ls)*len(r.P.Varrhos) {
		t.Fatalf("got %d rows, want %d", len(rows), len(r.P.Ls)*len(r.P.Varrhos))
	}
	// Shape check (the paper's headline): PA error well below raw DH error
	// on average.
	var paErr, dhErr float64
	for _, row := range rows {
		paErr += row.PAfpPct + row.PAfnPct
		dhErr += row.DHOptPct + row.DHPessPct
	}
	if paErr >= dhErr {
		t.Errorf("expected PA total error (%.1f) below DH total error (%.1f)", paErr, dhErr)
	}
	var buf bytes.Buffer
	if err := PrintFig8Accuracy(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(buf.String(), "\n")) < len(rows) {
		t.Error("PrintFig8Accuracy output malformed")
	}
}

func TestFig8Memory(t *testing.T) {
	rows, err := testRunner().Fig8Memory()
	if err != nil {
		t.Fatal(err)
	}
	var dhN, paN int
	for _, row := range rows {
		switch row.Method {
		case "DH":
			dhN++
		case "PA":
			paN++
		}
		if row.MemoryMB <= 0 {
			t.Errorf("row %+v has non-positive memory", row)
		}
	}
	if dhN < 2 || paN < 2 {
		t.Fatalf("memory sweep too small: DH=%d PA=%d", dhN, paN)
	}
	var buf bytes.Buffer
	if err := PrintFig8Memory(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "memory MB") {
		t.Error("PrintFig8Memory output malformed")
	}
}

func TestFig9a(t *testing.T) {
	r := testRunner()
	rows, err := r.Fig9aQueryCPU()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(r.P.Ls)*len(r.P.Varrhos) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if row.PACPU <= 0 || row.DHCPU <= 0 {
			t.Errorf("non-positive CPU in %+v", row)
		}
	}
	var buf bytes.Buffer
	if err := PrintFig9a(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PA CPU") {
		t.Error("PrintFig9a output malformed")
	}
}

func TestFig9b(t *testing.T) {
	r := testRunner()
	rows, err := r.Fig9bBuildCPU()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	var dhPer, paPer float64
	for _, row := range rows {
		if row.PerUpdate <= 0 {
			t.Errorf("non-positive per-update cost: %+v", row)
		}
		switch row.Method {
		case "DH":
			dhPer = float64(row.PerUpdate)
		case "PA":
			paPer = float64(row.PerUpdate)
		}
	}
	// Paper shape: PA maintenance is substantially costlier than DH.
	if paPer <= dhPer {
		t.Errorf("expected PA per-update (%v) > DH per-update (%v)", paPer, dhPer)
	}
	var buf bytes.Buffer
	if err := PrintFig9b(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "update") {
		t.Error("PrintFig9b output malformed")
	}
}

func TestFig10a(t *testing.T) {
	r := testRunner()
	rows, err := r.Fig10aQueryCost()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Paper shape: FR total cost above PA total cost (FR pays index I/O
	// plus plane sweeps).
	var pa, fr float64
	for _, row := range rows {
		pa += float64(row.PATotal)
		fr += float64(row.FRTotal)
	}
	if fr <= pa {
		t.Errorf("expected FR total (%v) > PA total (%v)", fr, pa)
	}
	var buf bytes.Buffer
	if err := PrintFig10a(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FR total") {
		t.Error("PrintFig10a output malformed")
	}
}

func TestFig10b(t *testing.T) {
	r := testRunner()
	rows, err := r.Fig10bScalability([]int{2000, 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	var buf bytes.Buffer
	if err := PrintFig10b(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PA total") {
		t.Error("PrintFig10b output malformed")
	}
}

func TestAblations(t *testing.T) {
	r := testRunner()
	bb, err := r.AblationBranchBound()
	if err != nil {
		t.Fatal(err)
	}
	if len(bb) != 2 {
		t.Fatalf("AblationBranchBound rows = %d", len(bb))
	}
	lp, err := r.AblationLocalPolynomials()
	if err != nil {
		t.Fatal(err)
	}
	if len(lp) != 2 {
		t.Fatalf("AblationLocalPolynomials rows = %d", len(lp))
	}
	fl, err := r.AblationFilter()
	if err != nil {
		t.Fatal(err)
	}
	if len(fl) != 5 {
		t.Fatalf("AblationFilter rows = %d", len(fl))
	}
	var buf bytes.Buffer
	if err := PrintAblation(&buf, append(append(bb, lp...), fl...)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ablation") {
		t.Error("PrintAblation output malformed")
	}
}

func TestBaselineComparison(t *testing.T) {
	rows, err := testRunner().BaselineComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	var pdrRow, dcRow *BaselineRow
	for i := range rows {
		switch {
		case rows[i].Method == "PDR (FR)":
			pdrRow = &rows[i]
		case strings.HasPrefix(rows[i].Method, "dense-cell"):
			dcRow = &rows[i]
		}
		if rows[i].CoveragePct < 0 || rows[i].CoveragePct > 100.0001 {
			t.Errorf("%s coverage %g out of range", rows[i].Method, rows[i].CoveragePct)
		}
	}
	if pdrRow == nil || dcRow == nil {
		t.Fatal("missing PDR or dense-cell rows")
	}
	if pdrRow.CoveragePct != 100 || pdrRow.ExcessPct != 0 {
		t.Errorf("PDR row must be perfect: %+v", pdrRow)
	}
	// The paper's answer-loss claim: the dense-cell method misses part of
	// the true dense area.
	if dcRow.CoveragePct >= 100 {
		t.Errorf("dense-cell coverage %g%% — expected answer loss (<100%%)", dcRow.CoveragePct)
	}
	var buf bytes.Buffer
	if err := PrintBaselines(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "coverage%") {
		t.Error("PrintBaselines output malformed")
	}
}

func TestExtIntervalCost(t *testing.T) {
	rows, err := testRunner().ExtIntervalCost([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, row := range rows {
		if row.PATotal <= 0 || row.DHTotal <= 0 || row.FRTotal <= 0 {
			t.Errorf("window %d: a method's interval cost is not positive: %+v", row.Window, row)
		}
	}
	// Cost and union area grow (weakly) with the window.
	for i := 1; i < len(rows); i++ {
		if rows[i].PATotal < rows[i-1].PATotal/2 {
			t.Errorf("PA interval cost shrank sharply: %v -> %v", rows[i-1].PATotal, rows[i].PATotal)
		}
		if rows[i].AreaGrowthPct+1e-9 < rows[i-1].AreaGrowthPct {
			t.Errorf("union area shrank with a wider window: %+v", rows)
		}
	}
	var buf bytes.Buffer
	if err := PrintInterval(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "window") || !strings.Contains(buf.String(), "FR total") {
		t.Error("PrintInterval output malformed")
	}
}

func TestFig7SVG(t *testing.T) {
	dir := t.TempDir()
	paths, err := testRunner().Fig7SVG(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d SVGs, want 3", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Errorf("%s does not start with <svg", p)
		}
	}
}
