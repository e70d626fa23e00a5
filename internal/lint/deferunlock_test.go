package lint

import "testing"

func TestDeferUnlock(t *testing.T) {
	const decl = `package x
import "sync"
type S struct {
	mu sync.Mutex
	n  int
}
`
	const rwDecl = `package x
import "sync"
type S struct {
	mu sync.RWMutex
	n  int
}
`
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"deferred unlock clean", decl + `
func (s *S) Get() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
`, 0},
		{"per-path manual unlock clean", decl + `
func (s *S) Get(cond bool) int {
	s.mu.Lock()
	if cond {
		n := s.n
		s.mu.Unlock()
		return n
	}
	s.mu.Unlock()
	return 0
}
`, 0},
		// The leak this analyzer exists for: the early return path exits
		// with the mutex still held.
		{"early return leaks lock", decl + `
func (s *S) Get(cond bool) int {
	s.mu.Lock()
	if cond {
		return s.n
	}
	s.mu.Unlock()
	return 0
}
`, 1},
		{"no unlock at all", decl + `
func (s *S) Touch() {
	s.mu.Lock()
	s.n++
}
`, 1},
		{"RLock leaked on a path", rwDecl + `
func (s *S) Get(cond bool) int {
	s.mu.RLock()
	if cond {
		return s.n
	}
	s.mu.RUnlock()
	return 0
}
`, 1},
		{"RLock with deferred RUnlock clean", rwDecl + `
func (s *S) Get() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}
`, 0},
		// Mismatched release method.
		{"Unlock releases read lock", rwDecl + `
func (s *S) Get() int {
	s.mu.RLock()
	n := s.n
	s.mu.Unlock()
	return n
}
`, 1},
		{"RUnlock releases write lock", rwDecl + `
func (s *S) Touch() {
	s.mu.Lock()
	s.n++
	s.mu.RUnlock()
}
`, 1},
		{"double unlock flagged", decl + `
func (s *S) Get() int {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	s.mu.Unlock()
	return n
}
`, 1},
		{"manual unlock plus deferred unlock flagged", decl + `
func (s *S) Get(cond bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cond {
		s.mu.Unlock()
		return 0
	}
	return s.n
}
`, 1},
		// A panic path is excused: corruption panics abandon the process.
		{"panic path exempt", decl + `
func (s *S) Get() int {
	s.mu.Lock()
	if s.n < 0 {
		panic("pdr: corrupt")
	}
	n := s.n
	s.mu.Unlock()
	return n
}
`, 0},
		// Unlock-only helpers belong to the *Locked convention: the caller
		// locked; not this analyzer's business.
		{"unlock-only helper ignored", decl + `
func (s *S) releaseLocked() {
	s.mu.Unlock()
}
`, 0},
		// Deferred closure releasing the lock counts.
		{"deferred closure unlock clean", decl + `
func (s *S) Get() int {
	s.mu.Lock()
	defer func() {
		s.n++
		s.mu.Unlock()
	}()
	return s.n
}
`, 0},
		// TryLock makes hold state a runtime condition; skip the function.
		{"TryLock function skipped", decl + `
func (s *S) Maybe() int {
	if !s.mu.TryLock() {
		return -1
	}
	defer s.mu.Unlock()
	return s.n
}
`, 0},
		// A goroutine literal is its own function with its own obligations.
		{"leak inside goroutine literal flagged", decl + `
func (s *S) Spawn(done chan struct{}) {
	go func() {
		s.mu.Lock()
		s.n++
		done <- struct{}{}
	}()
}
`, 1},
		{"conditional lock released in same branch clean", decl + `
func (s *S) Maybe(cond bool) {
	if cond {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
}
`, 0},
		{"ignore suppresses", decl + `
func (s *S) Touch() {
	s.mu.Lock() // lint:ignore deferunlock test fixture
	s.n++
}
`, 0},
		// A helper's name earns it nothing: returning with a lock held is a
		// leak whether or not the function is called lock*/rlock*.
		{"a lock-prefixed helper leaks like any other", decl + `
func (s *S) lockAll() {
	s.mu.Lock()
}
`, 1},
		{"an rlock-prefixed helper leaks too", rwDecl + `
func (s *S) rlockAll() {
	s.mu.RLock()
}
`, 1},
		{"same body without the helper name still leaks", decl + `
func (s *S) grab() {
	s.mu.Lock()
}
`, 1},
		{"acquire helper still flags double unlock", decl + `
func (s *S) lockTouch() {
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock()
}
`, 1},
		{"literal inside acquire helper keeps its own obligations", decl + `
func (s *S) lockVia(f func(func())) {
	f(func() {
		s.mu.Lock()
		s.n++
	})
}
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "pdr/internal/x", tc.src, AnalyzerDeferUnlock), "deferunlock", tc.want)
		})
	}
}
