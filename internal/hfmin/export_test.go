package hfmin

import "balsabm/internal/logic"

// BenchProblem exports benchProblem to the external differential tests.
var BenchProblem = benchProblem

// EnumRun is one required cube's prime enumeration: the primes in
// output order, the nodes visited, and whether the search completed.
type EnumRun struct {
	Seed   string
	Primes []string
	Nodes  int64
	Exact  bool
}

// EnumBoth enumerates the dhf-primes of every required cube of p that
// is a dhf-implicant, under the given node budget, once with
// dhfPrimesMask (got) and once with the reference engine (ref).
func EnumBoth(p *Problem, budget int64) (got, ref []EnumRun, err error) {
	_, off, required, priv, err := p.sets()
	if err != nil {
		return nil, nil, err
	}
	mat := newProblemMat(p.Vars, off, priv)
	mat.budget = budget
	run := func(seed logic.PackedCube, mask maskEngine) EnumRun {
		primes, nodes, exact := mat.dhfPrimes(seed, mask)
		r := EnumRun{Seed: mat.sp.Unpack(seed).String(), Nodes: nodes, Exact: exact}
		for _, c := range primes {
			r.Primes = append(r.Primes, mat.sp.Unpack(c).String())
		}
		return r
	}
	for _, r := range required {
		seed := mat.sp.Pack(r)
		if !mat.isDHF(seed) {
			continue
		}
		got = append(got, run(seed, (*problemMat).dhfPrimesMask))
		ref = append(ref, run(seed, (*problemMat).dhfPrimesMaskRef))
	}
	return got, ref, nil
}

// MinimizeWith is Minimize under the given node budget, on the
// reference engine when ref is set.
func MinimizeWith(p *Problem, budget int64, ref bool) (*Result, error) {
	if ref {
		return p.minimize(budget, (*problemMat).dhfPrimesMaskRef)
	}
	return p.minimize(budget, (*problemMat).dhfPrimesMask)
}

// EnumAll prepares the enumeration of every required cube of p that is
// a dhf-implicant and returns a function running them all once with
// the production engine, reporting the nodes visited.
func EnumAll(p *Problem) (func() int64, error) {
	_, off, required, priv, err := p.sets()
	if err != nil {
		return nil, err
	}
	mat := newProblemMat(p.Vars, off, priv)
	var seeds []logic.PackedCube
	for _, r := range required {
		if seed := mat.sp.Pack(r); mat.isDHF(seed) {
			seeds = append(seeds, seed)
		}
	}
	return func() int64 {
		var total int64
		for _, seed := range seeds {
			_, nodes, _ := mat.dhfPrimes(seed, (*problemMat).dhfPrimesMask)
			total += nodes
		}
		return total
	}, nil
}
