package lint

import (
	"strings"
	"testing"
)

// poolDecl is the shared lifetime-fixture preamble: a ref-free pooled
// scratch (no Put-hygiene findings) so the lifetime cases count only
// lifetime diagnostics.
const poolDecl = `package x

import "sync"

type scratch struct {
	buf []float64
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}
`

func TestPoolLifeLifetimes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"defer Put clean", poolDecl + `
func Sum(xs []float64) float64 {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	s.buf = append(s.buf[:0], xs...)
	var t float64
	for _, v := range s.buf {
		t += v
	}
	return t
}
`, 0},
		{"explicit Put on every path clean", poolDecl + `
func Count(xs []float64) int {
	s := scratches.Get().(*scratch)
	if len(xs) == 0 {
		scratches.Put(s)
		return 0
	}
	s.buf = append(s.buf[:0], xs...)
	n := len(s.buf)
	scratches.Put(s)
	return n
}
`, 0},
		{"conditional Put leaks the other path", poolDecl + `
func Leak(cond bool) {
	s := scratches.Get().(*scratch)
	s.buf = append(s.buf[:0], 1)
	if cond {
		scratches.Put(s)
	}
}
`, 1},
		{"use after Put flagged", poolDecl + `
func UseAfter() float64 {
	s := scratches.Get().(*scratch)
	s.buf = append(s.buf[:0], 1)
	scratches.Put(s)
	return s.buf[0]
}
`, 1},
		{"double Put flagged", poolDecl + `
func Double() {
	s := scratches.Get().(*scratch)
	scratches.Put(s)
	scratches.Put(s)
}
`, 1},
		{"deferred Put after manual Put is a double release", poolDecl + `
func DeferredDouble() {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	s.buf = append(s.buf[:0], 1)
	scratches.Put(s)
}
`, 1},
		// A pooled value returned to the caller transfers ownership — the
		// provider is clean, its callers inherit the obligation.
		{"returning the pooled value is ownership transfer", poolDecl + `
func Provide() *scratch {
	s := scratches.Get().(*scratch)
	s.buf = s.buf[:0]
	return s
}
`, 0},
		// Scratch captured by a spawned goroutine escapes this function's
		// CFG; the analysis gives the value up rather than guessing.
		{"goroutine-escaping scratch is not flagged", poolDecl + `
func Spawn(done chan struct{}) {
	s := scratches.Get().(*scratch)
	go func() {
		s.buf = s.buf[:0]
		scratches.Put(s)
		done <- struct{}{}
	}()
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "pdr/internal/x", tc.src, AnalyzerPoolLife), "poollife", tc.want)
		})
	}
}

// providerDecl adds a FilterResult-shaped API: a provider returning
// (pooled, error) and a Release method, the shape the dh package exports.
const providerDecl = `package x

import (
	"errors"
	"sync"
)

type res struct {
	buf []float64
}

var results = sync.Pool{New: func() any { return new(res) }}

func (r *res) Release() { results.Put(r) }

func open(fail bool) (*res, error) {
	if fail {
		return nil, errors.New("no")
	}
	return results.Get().(*res), nil
}
`

func TestPoolLifeProviderPaths(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		// The err != nil return carries no obligation: on that edge the
		// pooled result is nil (EdgeRefine drops the fact).
		{"error-path return clean with deferred Release", providerDecl + `
func Use(fail bool) error {
	r, err := open(fail)
	if err != nil {
		return err
	}
	defer r.Release()
	r.buf = r.buf[:0]
	return nil
}
`, 0},
		{"success path without Release leaks", providerDecl + `
func Leak(fail bool) error {
	r, err := open(fail)
	if err != nil {
		return err
	}
	r.buf = r.buf[:0]
	return nil
}
`, 1},
		{"Release on every success path clean", providerDecl + `
func Twice(fail bool) (int, error) {
	r, err := open(fail)
	if err != nil {
		return 0, err
	}
	if len(r.buf) == 0 {
		r.Release()
		return 0, nil
	}
	n := len(r.buf)
	r.Release()
	return n, nil
}
`, 0},
		{"use after Release flagged", providerDecl + `
func Stale(fail bool) float64 {
	r, err := open(fail)
	if err != nil {
		return 0
	}
	r.Release()
	return r.buf[0]
}
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "pdr/internal/x", tc.src, AnalyzerPoolLife), "poollife", tc.want)
		})
	}
}

// TestPoolLifeInterfaceRelease pins the name-convention fallback: a Release
// called through an interface cannot be resolved by the summary, but the
// Release/Close naming convention still counts it as the release.
func TestPoolLifeInterfaceRelease(t *testing.T) {
	src := `package x

import "sync"

type buffer interface {
	Release()
}

type impl struct {
	buf []float64
}

func (b *impl) Release() { buffers.Put(b) }

var buffers = sync.Pool{New: func() any { return new(impl) }}

func Use() {
	b := buffers.Get().(buffer)
	b.Release()
}
`
	wantFindings(t, analyze(t, "pdr/internal/x", src, AnalyzerPoolLife), "poollife", 0)
}

func TestPoolLifeNilBeforePut(t *testing.T) {
	const decl = `package x

import "sync"

type node struct {
	buf  []float64
	next *node
}

var nodes = sync.Pool{New: func() any { return new(node) }}
`
	t.Run("uncleared pointer field flagged with fix", func(t *testing.T) {
		diags := analyze(t, "pdr/internal/x", decl+`
func Put(n *node) {
	nodes.Put(n)
}
`, AnalyzerPoolLife)
		wantFindings(t, diags, "poollife", 1)
		if !strings.Contains(diags[0].Message, "next") {
			t.Errorf("finding does not name the field: %s", diags[0].Message)
		}
		if !strings.Contains(diags[0].Message, "clear them before Put") {
			t.Errorf("finding does not say how to fix it: %s", diags[0].Message)
		}
	})
	t.Run("nil assignment before Put clean", func(t *testing.T) {
		wantFindings(t, analyze(t, "pdr/internal/x", decl+`
func Put(n *node) {
	n.next = nil
	nodes.Put(n)
}
`, AnalyzerPoolLife), "poollife", 0)
	})
	t.Run("deferred Put reported without a mechanical fix", func(t *testing.T) {
		diags := analyze(t, "pdr/internal/x", decl+`
func Use(n *node) {
	defer nodes.Put(n)
	n.buf = append(n.buf[:0], 1)
}
`, AnalyzerPoolLife)
		wantFindings(t, diags, "poollife", 1)
	})
	t.Run("slice of pointers wants clear()", func(t *testing.T) {
		diags := analyze(t, "pdr/internal/x", decl+`
type list struct {
	items []*node
}

var lists = sync.Pool{New: func() any { return new(list) }}

func PutList(l *list) {
	lists.Put(l)
}
`, AnalyzerPoolLife)
		wantFindings(t, diags, "poollife", 1)
		if !strings.Contains(diags[0].Message, "items") {
			t.Errorf("finding does not name the field: %s", diags[0].Message)
		}
	})
	t.Run("clear before Put clean", func(t *testing.T) {
		wantFindings(t, analyze(t, "pdr/internal/x", decl+`
type list struct {
	items []*node
}

var lists = sync.Pool{New: func() any { return new(list) }}

func PutList(l *list) {
	clear(l.items)
	lists.Put(l)
}
`, AnalyzerPoolLife), "poollife", 0)
	})
}

func TestPoolLifeCapClip(t *testing.T) {
	t.Run("unclipped pooled-scratch return flagged with fix", func(t *testing.T) {
		diags := analyze(t, "pdr/internal/x", `package x

func Dedup(s []float64) []float64 {
	out := s[:0]
	for _, v := range s {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}
`, AnalyzerPoolLife)
		wantFindings(t, diags, "poollife", 1)
		if !strings.Contains(diags[0].Message, "return out[:len(out):len(out)]") {
			t.Errorf("finding does not name the full-slice clip: %s", diags[0].Message)
		}
	})
	t.Run("clipped return clean", func(t *testing.T) {
		wantFindings(t, analyze(t, "pdr/internal/x", `package x

func Dedup(s []float64) []float64 {
	out := s[:0]
	for _, v := range s {
		out = append(out, v)
	}
	return out[:len(out):len(out)]
}
`, AnalyzerPoolLife), "poollife", 0)
	})
	t.Run("fresh allocation needs no clip", func(t *testing.T) {
		wantFindings(t, analyze(t, "pdr/internal/x", `package x

func Copy(s []float64) []float64 {
	out := make([]float64, 0, len(s))
	out = append(out, s...)
	return out
}
`, AnalyzerPoolLife), "poollife", 0)
	})
}

// TestPoolLifeSummaryFixedPoint pins the Prepare summary through a second
// function: releases and provisions that only a fixed point over the
// module's declarations sees. A tracked value passed to a function the
// summary does not know escapes silently, so the flagged cases are what
// prove the summary reached the helper: a use after a delegated release, a
// leak of a forwarded provider's result, and a method that borrows the
// receiver instead of releasing it.
func TestPoolLifeSummaryFixedPoint(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"delegating releaser on every path clean", providerDecl + `
func done(r *res) { r.Release() }

func Use(fail bool) error {
	r, err := open(fail)
	if err != nil {
		return err
	}
	r.buf = r.buf[:0]
	done(r)
	return nil
}
`, 0},
		{"use after a delegating releaser flagged", providerDecl + `
func done(r *res) { r.Release() }

func Stale(fail bool) float64 {
	r, err := open(fail)
	if err != nil {
		return 0
	}
	done(r)
	return r.buf[0]
}
`, 1},
		{"forwarding provider with deferred Release clean", providerDecl + `
func get(fail bool) (*res, error) { return open(fail) }

func Use(fail bool) error {
	r, err := get(fail)
	if err != nil {
		return err
	}
	defer r.Release()
	r.buf = r.buf[:0]
	return nil
}
`, 0},
		{"forwarding provider result leaked flagged", providerDecl + `
func get(fail bool) (*res, error) { return open(fail) }

func Leak(fail bool) error {
	r, err := get(fail)
	if err != nil {
		return err
	}
	r.buf = r.buf[:0]
	return nil
}
`, 1},
		{"releasing method through a second function clean", providerDecl + `
func (r *res) done() { r.Release() }

func Use(fail bool) error {
	r, err := open(fail)
	if err != nil {
		return err
	}
	r.done()
	return nil
}
`, 0},
		{"done that does not release flagged", providerDecl + `
func (r *res) done() { r.buf = r.buf[:0] }

func Leak(fail bool) error {
	r, err := open(fail)
	if err != nil {
		return err
	}
	r.done()
	return nil
}
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "pdr/internal/x", tc.src, AnalyzerPoolLife), "poollife", tc.want)
		})
	}
}
