package logic

import "math/bits"

// This file implements the bit-parallel cube engine: cubes packed as
// two bit planes of 64 variables per word, so containment,
// intersection, supercube and distance tests run word-parallel instead
// of per-literal. The []Lit Cube type above stays as the reference
// implementation (and the format of covers crossing package
// boundaries); the minimizer's inner loops run on PackedCube and
// translate at the edges. FuzzPackedCubeAgreement keeps the two
// implementations in lock-step.

// Space describes a packed universe of n variables and provides the
// packing/unpacking conversions. Word counts and tail handling live
// here so PackedCube operations stay branch-light.
type Space struct {
	n int // variables
	w int // words per plane
}

// NewSpace returns the packed universe of n variables.
func NewSpace(n int) *Space {
	return &Space{n: n, w: (n + 63) / 64}
}

// Vars returns the number of variables.
func (s *Space) Vars() int { return s.n }

// Words returns the number of 64-bit words per plane.
func (s *Space) Words() int { return s.w }

// PackedCube is a product term over a Space's variables: bit v of
// Ones means "variable v must be 1", bit v of Zeros "must be 0";
// neither bit set means don't-care. Bits at positions >= Vars() are
// always zero (every constructor and operation preserves this), so
// word loops never need tail masks.
type PackedCube struct {
	Ones  []uint64
	Zeros []uint64
}

// NewCube returns the universal cube (no specified literals).
func (s *Space) NewCube() PackedCube {
	return PackedCube{Ones: make([]uint64, s.w), Zeros: make([]uint64, s.w)}
}

// Pack converts a reference cube into packed form.
func (s *Space) Pack(c Cube) PackedCube {
	p := s.NewCube()
	for v, l := range c {
		switch l {
		case One:
			p.Ones[v>>6] |= 1 << uint(v&63)
		case Zero:
			p.Zeros[v>>6] |= 1 << uint(v&63)
		}
	}
	return p
}

// Unpack converts back to the reference representation.
func (s *Space) Unpack(p PackedCube) Cube {
	c := NewCube(s.n)
	for v := 0; v < s.n; v++ {
		w, b := v>>6, uint(v&63)
		switch {
		case p.Ones[w]>>b&1 != 0:
			c[v] = One
		case p.Zeros[w]>>b&1 != 0:
			c[v] = Zero
		}
	}
	return c
}

// PackPoint packs a minterm: every variable specified.
func (s *Space) PackPoint(point []bool) PackedCube {
	p := s.NewCube()
	for v, b := range point {
		if b {
			p.Ones[v>>6] |= 1 << uint(v&63)
		} else {
			p.Zeros[v>>6] |= 1 << uint(v&63)
		}
	}
	return p
}

// PointWords packs a minterm's values as one bit plane (bit v set iff
// the variable is 1) — the form ContainsPointWords consumes.
func (s *Space) PointWords(point []bool) []uint64 {
	out := make([]uint64, s.w)
	for v, b := range point {
		if b {
			out[v>>6] |= 1 << uint(v&63)
		}
	}
	return out
}

// Clone returns an independent copy.
func (p PackedCube) Clone() PackedCube {
	return PackedCube{
		Ones:  append([]uint64(nil), p.Ones...),
		Zeros: append([]uint64(nil), p.Zeros...),
	}
}

// CopyFrom overwrites p's planes with q's (same space).
func (p PackedCube) CopyFrom(q PackedCube) {
	copy(p.Ones, q.Ones)
	copy(p.Zeros, q.Zeros)
}

// Lit returns the literal at variable v.
func (p PackedCube) Lit(v int) Lit {
	w, b := v>>6, uint(v&63)
	if p.Ones[w]>>b&1 != 0 {
		return One
	}
	if p.Zeros[w]>>b&1 != 0 {
		return Zero
	}
	return DC
}

// SetLit specifies variable v (val must be Zero or One; use FreeLit
// for DC). Any previous literal at v is replaced.
func (p PackedCube) SetLit(v int, val Lit) {
	w, mask := v>>6, uint64(1)<<uint(v&63)
	p.Ones[w] &^= mask
	p.Zeros[w] &^= mask
	switch val {
	case One:
		p.Ones[w] |= mask
	case Zero:
		p.Zeros[w] |= mask
	}
}

// FreeLit clears variable v to don't-care.
func (p PackedCube) FreeLit(v int) {
	w, mask := v>>6, uint64(1)<<uint(v&63)
	p.Ones[w] &^= mask
	p.Zeros[w] &^= mask
}

// Equal reports plane equality.
func (p PackedCube) Equal(q PackedCube) bool {
	for i := range p.Ones {
		if p.Ones[i] != q.Ones[i] || p.Zeros[i] != q.Zeros[i] {
			return false
		}
	}
	return true
}

// Contains reports whether q is contained in p: everywhere p is
// specified, q must be specified the same way.
func (p PackedCube) Contains(q PackedCube) bool {
	for i := range p.Ones {
		if p.Ones[i]&^q.Ones[i] != 0 || p.Zeros[i]&^q.Zeros[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether p and q share a point: no variable is
// forced to opposite values.
func (p PackedCube) Intersects(q PackedCube) bool {
	for i := range p.Ones {
		if p.Ones[i]&q.Zeros[i] != 0 || p.Zeros[i]&q.Ones[i] != 0 {
			return false
		}
	}
	return true
}

// Distance counts the variables on which p and q conflict; 0 means
// they intersect.
func (p PackedCube) Distance(q PackedCube) int {
	d := 0
	for i := range p.Ones {
		d += bits.OnesCount64(p.Ones[i]&q.Zeros[i] | p.Zeros[i]&q.Ones[i])
	}
	return d
}

// Distance1 reports whether p and q conflict on exactly one variable
// (the consensus condition of the espresso family).
func (p PackedCube) Distance1(q PackedCube) bool {
	seen := false
	for i := range p.Ones {
		c := p.Ones[i]&q.Zeros[i] | p.Zeros[i]&q.Ones[i]
		if c == 0 {
			continue
		}
		if seen || c&(c-1) != 0 {
			return false
		}
		seen = true
	}
	return seen
}

// IntersectInto writes the intersection of p and q into dst,
// reporting false (dst contents unspecified) when they are disjoint.
// dst may alias p or q.
func (p PackedCube) IntersectInto(dst, q PackedCube) bool {
	ok := true
	for i := range p.Ones {
		o := p.Ones[i] | q.Ones[i]
		z := p.Zeros[i] | q.Zeros[i]
		if o&z != 0 {
			ok = false
		}
		dst.Ones[i] = o
		dst.Zeros[i] = z
	}
	return ok
}

// SupercubeInto writes the smallest cube containing p and q into dst.
// dst may alias p or q.
func (p PackedCube) SupercubeInto(dst, q PackedCube) {
	for i := range p.Ones {
		dst.Ones[i] = p.Ones[i] & q.Ones[i]
		dst.Zeros[i] = p.Zeros[i] & q.Zeros[i]
	}
}

// Cofactor frees variable v in place, reporting false (p unchanged)
// when p requires the opposite value — the packed analogue of
// Cube.Cofactor, minus the clone.
func (p PackedCube) Cofactor(v int, val Lit) bool {
	l := p.Lit(v)
	if l != DC && l != val {
		return false
	}
	p.FreeLit(v)
	return true
}

// ContainsPointWords reports whether the minterm given by its
// PointWords plane lies in p.
func (p PackedCube) ContainsPointWords(point []uint64) bool {
	for i := range p.Ones {
		if p.Ones[i]&^point[i] != 0 || p.Zeros[i]&point[i] != 0 {
			return false
		}
	}
	return true
}

// Literals counts the specified variables.
func (p PackedCube) Literals() int {
	n := 0
	for i := range p.Ones {
		n += bits.OnesCount64(p.Ones[i]) + bits.OnesCount64(p.Zeros[i])
	}
	return n
}

// keyWords is the plane-word capacity of the fixed-size Key (4 words
// per plane = 256 variables).
const keyWords = 4

// Key is an allocation-free comparable dedup key for cubes of spaces
// up to 256 variables. Spaces beyond that fall back to byte-string
// keys (see KeySet); no real controller comes anywhere near the
// limit, but the engine must not silently mis-dedup if one does.
type Key struct {
	ones  [keyWords]uint64
	zeros [keyWords]uint64
}

// Key builds the comparable key, reporting false when the space is too
// wide for the fixed-size form.
func (s *Space) Key(p PackedCube) (Key, bool) {
	if s.w > keyWords {
		return Key{}, false
	}
	var k Key
	copy(k.ones[:], p.Ones)
	copy(k.zeros[:], p.Zeros)
	return k, true
}

// AppendKeyBytes appends an exact byte-key for p (the wide-space
// fallback) to dst and returns the extended slice.
func AppendKeyBytes(dst []byte, p PackedCube) []byte {
	for _, plane := range [2][]uint64{p.Ones, p.Zeros} {
		for _, w := range plane {
			dst = append(dst,
				byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
				byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
	}
	return dst
}

// KeySet is a set of packed cubes with exact membership: fixed-size
// comparable keys for spaces up to 256 variables, byte-string keys
// beyond. The zero value is not usable; call NewKeySet.
type KeySet struct {
	sp      *Space
	small   map[Key]struct{}
	big     map[string]struct{}
	scratch []byte
}

// NewKeySet returns an empty set over the given space.
func NewKeySet(sp *Space) *KeySet {
	s := &KeySet{sp: sp}
	if sp.w <= keyWords {
		s.small = make(map[Key]struct{})
	} else {
		s.big = make(map[string]struct{})
		s.scratch = make([]byte, 0, 16*sp.w)
	}
	return s
}

// Add inserts p, reporting whether it was newly added.
func (s *KeySet) Add(p PackedCube) bool {
	if s.small != nil {
		k, _ := s.sp.Key(p)
		if _, dup := s.small[k]; dup {
			return false
		}
		s.small[k] = struct{}{}
		return true
	}
	s.scratch = AppendKeyBytes(s.scratch[:0], p)
	if _, dup := s.big[string(s.scratch)]; dup {
		return false
	}
	s.big[string(s.scratch)] = struct{}{}
	return true
}

// Len returns the number of distinct cubes added.
func (s *KeySet) Len() int {
	if s.small != nil {
		return len(s.small)
	}
	return len(s.big)
}

// PackCover packs every cube of a cover.
func (s *Space) PackCover(cv Cover) []PackedCube {
	out := make([]PackedCube, len(cv))
	for i, c := range cv {
		out[i] = s.Pack(c)
	}
	return out
}

// AnyIntersectsPacked reports whether any cube of the packed cover
// intersects p.
func AnyIntersectsPacked(cover []PackedCube, p PackedCube) bool {
	for i := range cover {
		if cover[i].Intersects(p) {
			return true
		}
	}
	return false
}

// EvalCoverLanes evaluates a packed cover on 64 sample points at
// once: varLanes[v] carries the 64 values of variable v (bit l = the
// variable's value at point l), and bit l of the result is the
// cover's value at point l. This is the reference side of the
// compiled netlist audit: one call replaces 64 per-point cover walks.
func EvalCoverLanes(cover []PackedCube, varLanes []uint64) uint64 {
	var out uint64
	for i := range cover {
		c := &cover[i]
		acc := ^uint64(0)
		for w, plane := range c.Ones {
			for b := plane; b != 0; b &= b - 1 {
				acc &= varLanes[w<<6|bits.TrailingZeros64(b)]
				if acc == 0 {
					break
				}
			}
		}
		for w, plane := range c.Zeros {
			for b := plane; b != 0; b &= b - 1 {
				acc &^= varLanes[w<<6|bits.TrailingZeros64(b)]
				if acc == 0 {
					break
				}
			}
		}
		out |= acc
		if out == ^uint64(0) {
			return out
		}
	}
	return out
}
