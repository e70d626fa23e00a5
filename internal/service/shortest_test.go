package service

import (
	"math"
	"math/big"
	"testing"
)

// pow10Entry computes pow10G's entry for k from its definition with
// math/big: 10^-k = beta·2^r with beta in [2^125, 2^126), g = ⌊beta⌋ + 1,
// split at bit 63. It also returns r.
func pow10Entry(k int) (g1, g0 uint64, r int) {
	num, den := big.NewInt(1), big.NewInt(1)
	p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
	if k <= 0 {
		num = p
	} else {
		den = p
	}
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 125), new(big.Int).Lsh(big.NewInt(1), 126)
	beta := func(r int) *big.Int {
		n, d := new(big.Int).Set(num), new(big.Int).Set(den)
		if r < 0 {
			n.Lsh(n, uint(-r))
		} else {
			d.Lsh(d, uint(r))
		}
		return n.Quo(n, d)
	}
	r = num.BitLen() - den.BitLen() - 126
	for beta(r).Cmp(hi) >= 0 {
		r++
	}
	for beta(r).Cmp(lo) < 0 {
		r--
	}
	g := beta(r)
	g.Add(g, big.NewInt(1))
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 63), big.NewInt(1))
	return new(big.Int).Rsh(g, 63).Uint64(), new(big.Int).And(g, mask).Uint64(), r
}

// TestPow10Table regenerates the printer's powers of ten with math/big and
// compares the committed table with them entry by entry; it also checks
// that the table's ends are the k of the 'f' range's ends, so every float
// the printer is given has its entry.
func TestPow10Table(t *testing.T) {
	for i, got := range pow10G {
		k := i + pow10KMin
		g1, g0, r := pow10Entry(k)
		if got != [2]uint64{g1, g0} {
			t.Errorf("pow10G[%d] (k=%d) = %#x, want {%#x, %#x}", i, k, got, g1, g0)
		}
		if r != flog2pow10(-k)-125 {
			t.Errorf("k=%d: r=%d, the printer uses flog2pow10(-k)-125 = %d", k, r, flog2pow10(-k)-125)
		}
	}
	kOf := func(f float64) int {
		bits := math.Float64bits(f)
		q := int(bits>>52&0x7ff) - 1075
		if bits&(1<<52-1) == 0 {
			return flog10threeQuartersPow2(q)
		}
		return flog10pow2(q)
	}
	if k := kOf(1e-6); k != pow10KMin {
		t.Errorf("1e-6 needs k=%d, the table starts at %d", k, pow10KMin)
	}
	if k := kOf(math.Nextafter(1e21, 0)); k != pow10KMax {
		t.Errorf("the float below 1e21 needs k=%d, the table ends at %d", k, pow10KMax)
	}
	for e := -20; e <= 69; e++ {
		if k := kOf(math.Ldexp(1, e)); k < pow10KMin || k > pow10KMax {
			t.Errorf("2^%d needs k=%d, outside the table", e, k)
		}
	}
}

// TestFloorLogs checks the fixed-point logarithms against exact integer
// comparisons, over every exponent a float64 has.
func TestFloorLogs(t *testing.T) {
	pow := func(base, e int) *big.Rat {
		p := new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	// floor is the k with 10^k <= x < 10^(k+1) (base 10) or 2^k <= x <
	// 2^(k+1) (base 2).
	isFloor := func(base, k int, x *big.Rat) bool {
		return pow(base, k).Cmp(x) <= 0 && x.Cmp(pow(base, k+1)) < 0
	}
	threeQuarters := big.NewRat(3, 4)
	for e := -1100; e <= 1100; e++ {
		p2 := pow(2, e)
		if k := flog10pow2(e); !isFloor(10, k, p2) {
			t.Fatalf("flog10pow2(%d) = %d", e, k)
		}
		if k := flog10threeQuartersPow2(e); !isFloor(10, k, new(big.Rat).Mul(threeQuarters, p2)) {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d", e, k)
		}
	}
	for e := -350; e <= 350; e++ {
		if k := flog2pow10(e); !isFloor(2, k, pow(10, e)) {
			t.Fatalf("flog2pow10(%d) = %d", e, k)
		}
	}
}
