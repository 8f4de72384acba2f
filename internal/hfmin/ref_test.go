package hfmin

import "balsabm/internal/logic"

// dhfPrimesMaskRef is the unpruned mask enumeration dhfPrimesMask
// replaced, kept verbatim (save for the budget parameter) as the
// reference of the differential tests: it visits every distinct
// exclusion set, collects every feasible leaf, and filters the leaves
// for maximality at the end.
func (m *problemMat) dhfPrimesMaskRef(seed logic.PackedCube, spec []int) (out []logic.PackedCube, nodes int64, exact bool) {
	k := len(spec)
	offConf := make([]uint64, 0, len(m.off))
	for _, o := range m.off {
		var conf uint64
		for i, v := range spec {
			ol := o.Lit(v)
			if ol != logic.DC && ol != seed.Lit(v) {
				conf |= 1 << uint(i)
			}
		}
		offConf = append(offConf, conf)
	}
	privConf := make([]uint64, len(m.priv))
	privDist := make([]uint64, len(m.priv))
	for pi := range m.priv {
		for i, v := range spec {
			pl := m.priv[pi].cube.Lit(v)
			if pl != logic.DC && pl != seed.Lit(v) {
				privConf[pi] |= 1 << uint(i)
			}
			startOne := m.priv[pi].start[v>>6]>>uint(v&63)&1 != 0
			if (seed.Lit(v) == logic.One) != startOne {
				privDist[pi] |= 1 << uint(i)
			}
		}
	}
	feasible := func(s uint64) bool {
		for _, conf := range offConf {
			if conf&^s == 0 {
				return false
			}
		}
		for i := range privConf {
			if privConf[i]&^s == 0 && privDist[i]&^s != 0 {
				return false
			}
		}
		return true
	}

	full := ^uint64(0)
	if k < 64 {
		full = 1<<uint(k) - 1
	}
	var leaves []uint64
	seen := map[uint64]struct{}{}
	overflow := false
	var walk func(ex uint64)
	walk = func(ex uint64) {
		if overflow {
			return
		}
		if _, dup := seen[ex]; dup {
			return
		}
		if nodes++; nodes > m.budget {
			overflow = true
			return
		}
		seen[ex] = struct{}{}
		// A constraint is violated at the candidate U = full∖ex when
		// its conflict set avoids ex entirely (conf ⊆ U) and, for a
		// privileged pair, a start-distance literal is pinned (D ⊄ U).
		// Branch on the first violation; an empty witness set (conf or
		// P already empty) prunes the node — no feasible set survives.
		for _, conf := range offConf {
			if conf&ex == 0 {
				for b := conf; b != 0; b &= b - 1 {
					walk(ex | b&-b)
				}
				return
			}
		}
		for i := range privConf {
			if privConf[i]&ex == 0 && privDist[i]&ex != 0 {
				for b := privConf[i]; b != 0; b &= b - 1 {
					walk(ex | b&-b)
				}
				return
			}
		}
		leaves = append(leaves, full&^ex)
	}
	walk(0)
	if overflow {
		// Greedy maximal expansions guarantee candidates even when the
		// exact enumeration is truncated.
		for _, dir := range []int{1, -1} {
			var s uint64
			for changed := true; changed; {
				changed = false
				for j := 0; j < k; j++ {
					i := j
					if dir < 0 {
						i = k - 1 - j
					}
					if s>>uint(i)&1 != 0 {
						continue
					}
					if feasible(s | 1<<uint(i)) {
						s |= 1 << uint(i)
						changed = true
					}
				}
			}
			dup := false
			for _, u := range leaves {
				if u == s {
					dup = true
					break
				}
			}
			if !dup {
				leaves = append(leaves, s)
			}
		}
	}
	// Distinct exclusion sets can close on nested candidates; keep only
	// the maximal masks (the true dhf-primes).
	for _, s := range leaves {
		maximal := true
		for _, t := range leaves {
			if s != t && s&^t == 0 {
				maximal = false
				break
			}
		}
		if !maximal {
			continue
		}
		c := seed.Clone()
		for i := 0; i < k; i++ {
			if s>>uint(i)&1 != 0 {
				c.FreeLit(spec[i])
			}
		}
		out = append(out, c)
	}
	return out, nodes, !overflow
}
