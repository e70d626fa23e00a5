package lint

import (
	"strings"
	"testing"
)

func TestLockOrderRanks(t *testing.T) {
	const decl = `package x

import "sync"

type S struct {
	outer sync.Mutex // pdr:lockrank outer 10
	inner sync.Mutex // pdr:lockrank inner 20
}
`
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"ascending acquisition clean", decl + `
func (s *S) OK() {
	s.outer.Lock()
	s.inner.Lock()
	s.inner.Unlock()
	s.outer.Unlock()
}
`, 0},
		{"descending acquisition flagged", decl + `
func (s *S) Bad() {
	s.inner.Lock()
	s.outer.Lock()
	s.outer.Unlock()
	s.inner.Unlock()
}
`, 1},
		{"sequential non-nested acquisition clean", decl + `
func (s *S) Seq() {
	s.inner.Lock()
	s.inner.Unlock()
	s.outer.Lock()
	s.outer.Unlock()
}
`, 0},
		{"equal ranks on nested classes flagged", `package x

import "sync"

type S struct {
	a sync.Mutex // pdr:lockrank east 10
	b sync.Mutex // pdr:lockrank west 10
}

func (s *S) Bad() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}
`, 1},
		{"unannotated mutexes are invisible", `package x

import "sync"

type S struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *S) Any() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}
`, 0},
		{"malformed directive flagged", `package x

import "sync"

type S struct {
	mu sync.Mutex // pdr:lockrank shared ten
}
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "pdr/internal/x", tc.src, AnalyzerLockOrder), "lockorder", tc.want)
		})
	}
}

// TestLockOrderInterprocedural pins the reason the analyzer exists: the
// nesting is only visible across calls: a callee that locks on its own
// account creates an edge from whatever the caller holds.
func TestLockOrderInterprocedural(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"violation inside a callee under a held lock", `package x

import "sync"

type S struct {
	hi sync.Mutex // pdr:lockrank high 20
	lo sync.Mutex // pdr:lockrank low 10
}

func (s *S) touch() {
	s.lo.Lock()
	s.lo.Unlock()
}

func (s *S) Bad() {
	s.hi.Lock()
	s.touch()
	s.hi.Unlock()
}
`, 1},
		{"helper that releases before returning carries nothing", `package x

import "sync"

type S struct {
	hi sync.Mutex // pdr:lockrank high 20
	lo sync.Mutex // pdr:lockrank low 10
}

func (s *S) withHigh() {
	s.hi.Lock()
	defer s.hi.Unlock()
}

func (s *S) OK() {
	s.withHigh()
	s.lo.Lock()
	s.lo.Unlock()
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "pdr/internal/x", tc.src, AnalyzerLockOrder), "lockorder", tc.want)
		})
	}
}

// TestLockOrderCycle pins cycle detection for unranked classes: each order
// is locally consistent, together they can deadlock.
func TestLockOrderCycle(t *testing.T) {
	diags := analyze(t, "pdr/internal/x", `package x

import "sync"

type S struct {
	a sync.Mutex // pdr:lockrank alpha
	b sync.Mutex // pdr:lockrank beta
}

func (s *S) AB() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func (s *S) BA() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}
`, AnalyzerLockOrder)
	wantFindings(t, diags, "lockorder", 1)
	msg := diags[0].Message
	if !strings.Contains(msg, "cycle") || !strings.Contains(msg, "alpha") || !strings.Contains(msg, "beta") {
		t.Errorf("cycle finding should name both classes: %s", msg)
	}
}
