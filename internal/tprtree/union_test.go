package tprtree

import (
	"math"
	"math/rand"
	"testing"

	"pdr/internal/motion"
)

// referenceRebase, referenceCombine and referenceCombineAll are the by-value
// tpbr union the write path used before it accumulated through pointers,
// kept as the bit-for-bit reference: same math.Min/Max over the same
// rebased expressions, three entry copies per union.
func referenceRebase(e entry, rc motion.Tick) entry {
	if rc == e.ref {
		return e
	}
	out := e
	out.ref = rc
	for d := 0; d < 2; d++ {
		out.lo[d] = e.loAt(d, rc)
		out.hi[d] = e.hiAt(d, rc)
	}
	return out
}

func referenceCombine(a, b entry, rc motion.Tick) entry {
	a, b = referenceRebase(a, rc), referenceRebase(b, rc)
	out := entry{ref: rc}
	for d := 0; d < 2; d++ {
		out.lo[d] = math.Min(a.lo[d], b.lo[d])
		out.hi[d] = math.Max(a.hi[d], b.hi[d])
		out.vlo[d] = math.Min(a.vlo[d], b.vlo[d])
		out.vhi[d] = math.Max(a.vhi[d], b.vhi[d])
	}
	return out
}

func referenceCombineAll(es []entry, rc motion.Tick) entry {
	out := referenceRebase(es[0], rc)
	for _, e := range es[1:] {
		out = referenceCombine(out, e, rc)
	}
	return out
}

// sameBox reports whether two tpbrs agree on the anchor and on every bound,
// float bit for float bit.
func sameBox(a, b entry) bool {
	if a.ref != b.ref {
		return false
	}
	for d := 0; d < 2; d++ {
		for _, v := range [4][2]float64{{a.lo[d], b.lo[d]}, {a.hi[d], b.hi[d]}, {a.vlo[d], b.vlo[d]}, {a.vhi[d], b.vhi[d]}} {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				return false
			}
		}
	}
	return true
}

// TestInPlaceUnionMatchesReference pins combine and combineAll to the
// by-value reference over random entry sets: leaves and subtree bounds,
// mixed reference times at and before the anchor, signed zeros included.
func TestInPlaceUnionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	random := func(rc motion.Tick) entry {
		e := leafEntry(randomState(rng, rng.Intn(1000), rc-motion.Tick(rng.Intn(4))))
		switch rng.Intn(4) {
		case 0: // a subtree bound: a box with a velocity spread
			for d := 0; d < 2; d++ {
				e.hi[d] = e.lo[d] + rng.Float64()*50
				e.vhi[d] = e.vlo[d] + rng.Float64()*3
			}
		case 1:
			e.lo[0], e.vlo[1] = math.Copysign(0, -1), math.Copysign(0, -1)
			e.hi[0], e.vhi[1] = 0, 0
		}
		return e
	}
	for trial := 0; trial < 2000; trial++ {
		rc := motion.Tick(3 + rng.Intn(50))
		es := make([]entry, 1+rng.Intn(12))
		for i := range es {
			es[i] = random(rc)
		}
		if got, want := combineAll(es, rc), referenceCombineAll(es, rc); !sameBox(got, want) {
			t.Fatalf("trial %d: combineAll of %d entries at %d = %+v, reference %+v", trial, len(es), rc, got, want)
		}
		a, b := random(rc), random(rc)
		if got, want := combine(&a, &b, rc), referenceCombine(a, b, rc); !sameBox(got, want) {
			t.Fatalf("trial %d: combine at %d = %+v, reference %+v", trial, rc, got, want)
		}
	}
}
