package pdr_test

// One benchmark per table and figure of the paper's evaluation (Sec. 7),
// at a scale that finishes quickly under `go test -bench=.`. The full-scale
// runs (CH100K analogue) are produced by cmd/pdrbench; see EXPERIMENTS.md
// for recorded results and paper-vs-measured shape comparisons.

import (
	"io"
	"sync"
	"testing"

	"pdr/internal/experiments"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
)

// runner returns a shared scaled-down experiment runner; environments are
// cached inside it, so each figure pays only its own measurement cost.
func runner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		p := experiments.TestParams()
		benchRunner = experiments.NewRunner(p)
	})
	return benchRunner
}

func BenchmarkTable1Setup(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if err := r.Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Example(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8aAccuracyFP(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig8Accuracy()
		if err != nil {
			b.Fatal(err)
		}
		var pa, dh float64
		for _, row := range rows {
			pa += row.PAfpPct
			dh += row.DHOptPct
		}
		b.ReportMetric(pa/float64(len(rows)), "PA-rfp-%")
		b.ReportMetric(dh/float64(len(rows)), "DHopt-rfp-%")
	}
}

func BenchmarkFig8bAccuracyFN(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig8Accuracy()
		if err != nil {
			b.Fatal(err)
		}
		var pa, dh float64
		for _, row := range rows {
			pa += row.PAfnPct
			dh += row.DHPessPct
		}
		b.ReportMetric(pa/float64(len(rows)), "PA-rfn-%")
		b.ReportMetric(dh/float64(len(rows)), "DHpess-rfn-%")
	}
}

func BenchmarkFig8cMemoryFP(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig8Memory()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			_ = row.RfpPct
		}
	}
}

func BenchmarkFig8dMemoryFN(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig8Memory()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			_ = row.RfnPct
		}
	}
}

func BenchmarkFig9aQueryCPU(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig9aQueryCPU()
		if err != nil {
			b.Fatal(err)
		}
		var pa, dh float64
		for _, row := range rows {
			pa += float64(row.PACPU.Microseconds())
			dh += float64(row.DHCPU.Microseconds())
		}
		b.ReportMetric(pa/float64(len(rows)), "PA-us/query")
		b.ReportMetric(dh/float64(len(rows)), "DH-us/query")
	}
}

func BenchmarkFig9bBuildCPU(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig9bBuildCPU()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(float64(row.PerUpdate.Nanoseconds()), row.Method+"-ns/update")
		}
	}
}

func BenchmarkFig10aQueryCost(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		rows, err := r.Fig10aQueryCost()
		if err != nil {
			b.Fatal(err)
		}
		var pa, fr float64
		for _, row := range rows {
			pa += float64(row.PATotal.Microseconds())
			fr += float64(row.FRTotal.Microseconds())
		}
		b.ReportMetric(pa/float64(len(rows)), "PA-us/query")
		b.ReportMetric(fr/float64(len(rows)), "FR-us/query")
	}
}

func BenchmarkFig10bScalability(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig10bScalability([]int{2000, 4000, 8000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBranchBound(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationBranchBound(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLocalPolynomials(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationLocalPolynomials(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFilter(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationFilter(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.BaselineComparison(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtIntervalCost(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.ExtIntervalCost([]int{1, 2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}
