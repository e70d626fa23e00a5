package dh

import (
	"math/rand"
	"testing"

	"pdr/internal/motion"
)

func BenchmarkInsert(b *testing.B) {
	h, err := New(Config{Area: area1000(), M: 100, Horizon: 90})
	if err != nil {
		b.Fatal(err)
	}
	h.Advance(0)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(randState(rng, i, 0))
	}
}

// filterOp is BenchmarkFilter's call: a Filter over 50,000 objects at a
// timestamp that steps through the horizon, its result released.
func filterOp(tb testing.TB) func() {
	h, err := New(Config{Area: area1000(), M: 100, Horizon: 90})
	if err != nil {
		tb.Fatal(err)
	}
	h.Advance(0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		h.Insert(randState(rng, i, 0))
	}
	rho := 50000.0 * 3 / 1e6
	i := 0
	return func() {
		fr, err := h.Filter(motion.Tick(i%91), rho, 30)
		if err != nil {
			tb.Fatal(err)
		}
		i++
		// As the engine's pipeline does; without it every call allocates
		// a fresh marks buffer and the pooled path goes unmeasured.
		fr.Release()
	}
}

func BenchmarkFilter(b *testing.B) {
	op := filterOp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkAdvance(b *testing.B) {
	h, err := New(Config{Area: area1000(), M: 100, Horizon: 90})
	if err != nil {
		b.Fatal(err)
	}
	h.Advance(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		h.Insert(randState(rng, i, 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Advance(motion.Tick(i + 1))
	}
}
