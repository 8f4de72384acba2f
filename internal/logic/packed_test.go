package logic

import (
	"math/rand"
	"testing"
)

func randCube(rng *rand.Rand, n int) Cube {
	c := make(Cube, n)
	for i := range c {
		c[i] = Lit(rng.Intn(3))
	}
	return c
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 130} {
		sp := NewSpace(n)
		for trial := 0; trial < 50; trial++ {
			c := randCube(rng, n)
			if got := sp.Unpack(sp.Pack(c)); !got.Equal(c) {
				t.Fatalf("n=%d: round trip %s -> %s", n, c, got)
			}
		}
	}
}

func TestPackedOpsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{5, 64, 65, 130} {
		sp := NewSpace(n)
		for trial := 0; trial < 200; trial++ {
			c, d := randCube(rng, n), randCube(rng, n)
			pc, pd := sp.Pack(c), sp.Pack(d)
			if got, want := pc.Contains(pd), c.Contains(d); got != want {
				t.Fatalf("n=%d Contains(%s,%s)=%t want %t", n, c, d, got, want)
			}
			if got, want := pc.Intersects(pd), c.Intersects(d); got != want {
				t.Fatalf("n=%d Intersects(%s,%s)=%t want %t", n, c, d, got, want)
			}
			inter := sp.NewCube()
			ok := pc.IntersectInto(inter, pd)
			ref := c.Intersect(d)
			if ok != (ref != nil) {
				t.Fatalf("n=%d Intersect ok=%t want %t", n, ok, ref != nil)
			}
			if ok && !sp.Unpack(inter).Equal(ref) {
				t.Fatalf("n=%d Intersect(%s,%s)=%s want %s", n, c, d, sp.Unpack(inter), ref)
			}
			super := sp.NewCube()
			pc.SupercubeInto(super, pd)
			if want := c.Supercube(d); !sp.Unpack(super).Equal(want) {
				t.Fatalf("n=%d Supercube(%s,%s)=%s want %s", n, c, d, sp.Unpack(super), want)
			}
			if got, want := pc.Literals(), c.Literals(); got != want {
				t.Fatalf("n=%d Literals(%s)=%d want %d", n, c, got, want)
			}
		}
	}
}

func TestPackedCofactorAndPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sp := NewSpace(70)
	for trial := 0; trial < 200; trial++ {
		c := randCube(rng, 70)
		v := rng.Intn(70)
		val := Lit(rng.Intn(2))
		pc := sp.Pack(c)
		ok := pc.Cofactor(v, val)
		ref := c.Cofactor(v, val)
		if ok != (ref != nil) {
			t.Fatalf("Cofactor ok=%t want %t", ok, ref != nil)
		}
		if ok && !sp.Unpack(pc).Equal(ref) {
			t.Fatalf("Cofactor got %s want %s", sp.Unpack(pc), ref)
		}
		bitsv := make([]bool, 70)
		for i := range bitsv {
			bitsv[i] = rng.Intn(2) == 1
		}
		pw := sp.PointWords(bitsv)
		if got, want := sp.Pack(c).ContainsPointWords(pw), c.ContainsPoint(bitsv); got != want {
			t.Fatalf("ContainsPointWords=%t want %t (cube %s)", got, want, c)
		}
		if !sp.PackPoint(bitsv).ContainsPointWords(pw) {
			t.Fatal("packed point does not contain itself")
		}
	}
}

func TestPackedDistance(t *testing.T) {
	sp := NewSpace(130)
	a, err := ParseCube("10" + repeat("-", 126) + "01")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseCube("01" + repeat("-", 126) + "01")
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := sp.Pack(a), sp.Pack(b)
	if d := pa.Distance(pb); d != 2 {
		t.Fatalf("distance %d, want 2", d)
	}
	if pa.Distance1(pb) {
		t.Fatal("Distance1 true at distance 2")
	}
	// Flip one conflicting position to don't-care: distance drops to 1.
	pb.FreeLit(0)
	if !pa.Distance1(pb) {
		t.Fatal("Distance1 false at distance 1")
	}
	if pa.Distance1(pa) {
		t.Fatal("Distance1 true at distance 0")
	}
}

func TestSetLitFreeLit(t *testing.T) {
	sp := NewSpace(66)
	p := sp.NewCube()
	p.SetLit(65, One)
	if p.Lit(65) != One {
		t.Fatal("SetLit One")
	}
	p.SetLit(65, Zero)
	if p.Lit(65) != Zero {
		t.Fatal("SetLit must replace the previous literal")
	}
	p.FreeLit(65)
	if p.Lit(65) != DC {
		t.Fatal("FreeLit")
	}
}

func TestKeySet(t *testing.T) {
	for _, n := range []int{8, 130, 300} {
		sp := NewSpace(n)
		set := NewKeySet(sp)
		rng := rand.New(rand.NewSource(4))
		cubes := make([]Cube, 40)
		for i := range cubes {
			cubes[i] = randCube(rng, n)
		}
		for _, c := range cubes {
			set.Add(sp.Pack(c))
		}
		distinct := map[string]bool{}
		for _, c := range cubes {
			distinct[c.String()] = true
		}
		if set.Len() != len(distinct) {
			t.Fatalf("n=%d: KeySet has %d entries, want %d", n, set.Len(), len(distinct))
		}
		for _, c := range cubes {
			if set.Add(sp.Pack(c)) {
				t.Fatalf("n=%d: duplicate %s newly added", n, c)
			}
		}
	}
}

func TestPackedCoverHelpers(t *testing.T) {
	sp := NewSpace(3)
	cv := Cover{mustParse(t, "1-1"), mustParse(t, "-11")}
	pcv := sp.PackCover(cv)
	probe := mustParse(t, "0-1")
	if got, want := AnyIntersectsPacked(pcv, sp.Pack(probe)), cv.AnyIntersects(probe); got != want {
		t.Fatalf("AnyIntersectsPacked=%t want %t", got, want)
	}
	for p := 0; p < 8; p++ {
		bitsv := []bool{p&1 != 0, p&2 != 0, p&4 != 0}
		if got, want := evalPointWords(pcv, sp.PointWords(bitsv)), cv.Eval(bitsv); got != want {
			t.Fatalf("evalPointWords(%v)=%t want %t", bitsv, got, want)
		}
	}
}

// EvalCoverLanes evaluates 64 points per call; every lane must agree
// with the per-point evalPointWords walk, including spaces wider than
// one word (cube planes span words, the lane result must not).
func TestEvalCoverLanesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 9, 14, 70} {
		sp := NewSpace(n)
		for trial := 0; trial < 20; trial++ {
			cv := make(Cover, rng.Intn(6))
			for i := range cv {
				cv[i] = randCube(rng, n)
			}
			pcv := sp.PackCover(cv)
			// 64 random points, packed both ways.
			varLanes := make([]uint64, n)
			points := make([][]bool, 64)
			for l := range points {
				points[l] = make([]bool, n)
				for v := 0; v < n; v++ {
					if rng.Intn(2) == 1 {
						points[l][v] = true
						varLanes[v] |= 1 << uint(l)
					}
				}
			}
			got := EvalCoverLanes(pcv, varLanes)
			for l, pt := range points {
				want := evalPointWords(pcv, sp.PointWords(pt))
				if got>>uint(l)&1 != 0 != want {
					t.Fatalf("n=%d trial=%d lane=%d: got %v want %v", n, trial, l, !want, want)
				}
			}
		}
	}
}

func mustParse(t *testing.T, s string) Cube {
	t.Helper()
	c, err := ParseCube(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func repeat(s string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += s
	}
	return out
}

// BenchmarkCubeOps measures the kernel primitives head to head:
// reference []Lit loops versus packed word-parallel planes, at a
// controller-sized (20 vars) and a stress-sized (130 vars) space.
func BenchmarkCubeOps(b *testing.B) {
	for _, n := range []int{20, 130} {
		rng := rand.New(rand.NewSource(7))
		sp := NewSpace(n)
		ref := make([]Cube, 64)
		packed := make([]PackedCube, 64)
		for i := range ref {
			ref[i] = randCube(rng, n)
			packed[i] = sp.Pack(ref[i])
		}
		b.Run(benchName("RefIntersects", n), func(b *testing.B) {
			b.ReportAllocs()
			acc := 0
			for i := 0; i < b.N; i++ {
				for j := range ref {
					if ref[0].Intersects(ref[j]) {
						acc++
					}
				}
			}
			_ = acc
		})
		b.Run(benchName("PackedIntersects", n), func(b *testing.B) {
			b.ReportAllocs()
			acc := 0
			for i := 0; i < b.N; i++ {
				for j := range packed {
					if packed[0].Intersects(packed[j]) {
						acc++
					}
				}
			}
			_ = acc
		})
		b.Run(benchName("RefContains", n), func(b *testing.B) {
			b.ReportAllocs()
			acc := 0
			for i := 0; i < b.N; i++ {
				for j := range ref {
					if ref[0].Contains(ref[j]) {
						acc++
					}
				}
			}
			_ = acc
		})
		b.Run(benchName("PackedContains", n), func(b *testing.B) {
			b.ReportAllocs()
			acc := 0
			for i := 0; i < b.N; i++ {
				for j := range packed {
					if packed[0].Contains(packed[j]) {
						acc++
					}
				}
			}
			_ = acc
		})
		b.Run(benchName("RefSupercube", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 1; j < len(ref); j++ {
					_ = ref[j-1].Supercube(ref[j])
				}
			}
		})
		b.Run(benchName("PackedSupercube", n), func(b *testing.B) {
			b.ReportAllocs()
			dst := sp.NewCube()
			for i := 0; i < b.N; i++ {
				for j := 1; j < len(packed); j++ {
					packed[j-1].SupercubeInto(dst, packed[j])
				}
			}
		})
	}
}

func benchName(op string, n int) string {
	if n == 20 {
		return op + "/vars20"
	}
	return op + "/vars130"
}

// evalPointWords evaluates a packed cover at one minterm given in
// PointWords form: the per-point reference EvalCoverLanes is checked
// against.
func evalPointWords(cover []PackedCube, point []uint64) bool {
	for i := range cover {
		if cover[i].ContainsPointWords(point) {
			return true
		}
	}
	return false
}
