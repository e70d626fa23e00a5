package service

import (
	"encoding/binary"
	"math/bits"
)

// The shortest-decimal printer for the floats encoding/json prints in 'f'
// form, after Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020). A normal float64 v = c·2^q, c in [2^52, 2^53), rounds
// from every real in its rounding interval Rv, which is 2^q wide (3/4 of
// that when c = 2^52, whose lower neighbour is half as far). With
// k = ⌊log10 of that width⌋, Rv holds at most one multiple of 10^(k+1) and
// at least one of 10^k. So the shortest decimal in Rv is that multiple of
// 10^(k+1) when there is one, and otherwise whichever of ⌊v/10^k⌋·10^k and
// the next multiple up lies in Rv — the one closer to v when both do, the
// even one on a tie. Three products, of 4v and of its interval's two ends
// with a 126-bit approximation of 10^-k, decide all of it exactly.

// The 'f' range, 1e-6 <= |v| < 1e21, holds the binary exponents from
// 2^-20 (1e-6 = 1.048576·2^-20) to 2^69 (1e21 < 2^70): q = -72 .. 17, so
// k = -22 .. 5. That is the whole table.
const (
	pow10KMin = -22
	pow10KMax = 5
)

// pow10G[k-pow10KMin] is 10^-k as g·2^r with g = ⌊10^-k·2^-r⌋ + 1 in
// (2^125, 2^126], split into g1 = ⌊g/2^63⌋ and g0 = g mod 2^63:
// r = flog2pow10(-k) - 125. TestPow10Table regenerates it with math/big.
var pow10G = [pow10KMax - pow10KMin + 1][2]uint64{
	{0x43c33c1937564800, 0x1},                // k = -22
	{0x6c6b935b8bbd4000, 0x1},                // k = -21
	{0x56bc75e2d6310000, 0x1},                // k = -20
	{0x4563918244f40000, 0x1},                // k = -19
	{0x6f05b59d3b200000, 0x1},                // k = -18
	{0x58d15e1762800000, 0x1},                // k = -17
	{0x470de4df82000000, 0x1},                // k = -16
	{0x71afd498d0000000, 0x1},                // k = -15
	{0x5af3107a40000000, 0x1},                // k = -14
	{0x48c2739500000000, 0x1},                // k = -13
	{0x746a528800000000, 0x1},                // k = -12
	{0x5d21dba000000000, 0x1},                // k = -11
	{0x4a817c8000000000, 0x1},                // k = -10
	{0x7735940000000000, 0x1},                // k = -9
	{0x5f5e100000000000, 0x1},                // k = -8
	{0x4c4b400000000000, 0x1},                // k = -7
	{0x7a12000000000000, 0x1},                // k = -6
	{0x61a8000000000000, 0x1},                // k = -5
	{0x4e20000000000000, 0x1},                // k = -4
	{0x7d00000000000000, 0x1},                // k = -3
	{0x6400000000000000, 0x1},                // k = -2
	{0x5000000000000000, 0x1},                // k = -1
	{0x4000000000000000, 0x1},                // k = 0
	{0x6666666666666666, 0x3333333333333334}, // k = 1
	{0x51eb851eb851eb85, 0xf5c28f5c28f5c29},  // k = 2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // k = 3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // k = 4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // k = 5
}

// flog10pow2 is ⌊log10(2^e)⌋, flog10threeQuartersPow2 ⌊log10(3/4·2^e)⌋ and
// flog2pow10 ⌊log2(10^e)⌋, by fixed-point multiply; TestFloorLogs checks
// them exactly over every exponent a float64 has.
func flog10pow2(e int) int              { return e * 661971961083 >> 41 }
func flog10threeQuartersPow2(e int) int { return (e*661971961083 - 274743187321) >> 41 }
func flog2pow10(e int) int              { return e * 913124641741 >> 38 }

// appendShortestF appends the float64 f whose bits are u, 1e-6 <= |f| <
// 1e21, in strconv.AppendFloat(b, f, 'f', -1, 64)'s bytes: the shortest
// decimal that parses back to f, the closest to f when several are as short.
func appendShortestF(b []byte, u uint64) []byte {
	if u>>63 != 0 {
		b = append(b, '-')
	}
	t := u & (1<<52 - 1)
	d, k := shortestDecimal(t|1<<52, int(u>>52&0x7ff)-1075, t == 0)
	return appendDecimalF(b, d, k)
}

// shortestDecimal returns the shortest decimal d·10^k that rounds to the
// normal float64 c·2^q; irregular says c = 2^52, where the interval's lower
// half is half as wide. d has 16 or 17 digits, trailing zeros included.
func shortestDecimal(c uint64, q int, irregular bool) (d uint64, k int) {
	// Four times v and its interval's ends, so the ends are integers.
	cb := c << 2
	cbr, cbl := cb+2, cb-2
	if irregular {
		cbl, k = cb-1, flog10threeQuartersPow2(q)
	} else {
		k = flog10pow2(q)
	}
	// Scaled by 10^-k: vb is 4v/10^k, rounded to odd so that comparing it
	// with a multiple of 4 is exact. h in [2, 5] keeps cb<<h below 2^60.
	g := &pow10G[k-pow10KMin]
	h := q + flog2pow10(-k) + 2
	vb := roundToOdd(g[0], g[1], cb<<h)
	vbl := roundToOdd(g[0], g[1], cbl<<h)
	vbr := roundToOdd(g[0], g[1], cbr<<h)
	// An even c rounds its interval's ends to itself (ties to even), so
	// they belong to it; an odd c's do not.
	out := c & 1
	s := vb >> 2 // ⌊v/10^k⌋, at least 2^52
	// The one multiple of 10^(k+1) that can lie in the interval.
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// The multiples of 10^k either side of v.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if mid := (s + t) << 1; vb < mid || vb == mid && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundToOdd is ⌊cp·g/2^127⌋ with its lowest bit set when the fraction
// dropped is not zero, g = g1·2^63 + g0: two 64x64 products.
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&(1<<63-1)+(1<<63-1))>>63
}

// decimalZeros pads a decimal's integer part out to its point (a float
// below 1e21 has at most 21 integer digits, one of them nonzero) and a
// fraction's digits out from its point (at most 5 places below 1 from 1e-6
// up).
const decimalZeros = "00000000000000000000"

// appendDecimalF appends d·10^k, d a decimal of 16 or 17 digits, in 'f'
// form with its trailing zeros dropped. The digits go into fixed places of
// a field, a[1:18], and the point 18+k places into it.
func appendDecimalF(b []byte, d uint64, k int) []byte {
	if d < 1e16 {
		d, k = d*10, k-1 // 17 digits, the last a zero that is trimmed
	}
	var a [18]byte
	hi := d / 1e8 // the first 9 digits
	lo := uint32(d - hi*1e8)
	a[1] = byte('0' + uint32(hi)/1e8)
	binary.LittleEndian.PutUint64(a[2:10], digits8(uint32(hi)%1e8))
	binary.LittleEndian.PutUint64(a[10:18], digits8(lo))
	end := len(a)
	for a[end-1] == '0' {
		end--
	}
	switch point := len(a) + k; {
	case point >= end:
		b = append(b, a[1:end]...)
		return append(b, decimalZeros[:point-end]...)
	case point > 1:
		// The integer digits move one place left, into a[0], to make room
		// for the point; the field is then stored whole, a fixed-size copy,
		// and the slice cut at its end.
		for i := 1; i < point; i++ {
			a[i-1] = a[i]
		}
		a[point-1] = '.'
		n := len(b)
		if cap(b)-n < len(a) {
			b = append(b, a[:]...)
		}
		*(*[len(a)]byte)(b[n : n+len(a)]) = a
		return b[:n+end]
	default:
		b = append(b, "0."...)
		b = append(b, decimalZeros[:1-point]...)
		return append(b, a[1:end]...)
	}
}

// digits8 is x < 1e8 as eight ASCII digits, the first in the low byte, by
// arithmetic on all of them at once: x splits into two halves of four
// digits in 32-bit lanes, each into two of two digits in 16-bit lanes, and
// each of those into its two digits, one per byte.
func digits8(x uint32) uint64 {
	v := uint64(x/10000) | uint64(x%10000)<<32
	t := v * 10486 >> 20 & 0x0000007f0000007f // lane/100, exact below 10000
	v = t | (v-t*100)<<16
	t = v * 103 >> 10 & 0x000f000f000f000f // lane/10, exact below 100
	v = t | (v-t*10)<<8
	return v + 0x3030303030303030
}
