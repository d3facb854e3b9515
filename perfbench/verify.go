package main

import (
	"errors"
	"fmt"

	"repro"
)

// The checks in this file never trust the program's own verdict helpers:
// models are evaluated clause by clause here, optima are compared with
// values the generators or the BMC constructions imply, and certificates go
// to the independent RUP checker (maxsat.CheckCertificate, internal/proof),
// which shares no code with the solvers.

// evalModel returns the total weight of the soft clauses model falsifies, or
// an error if it falsifies a hard clause or is too short for w.
func evalModel(w *maxsat.WCNF, model maxsat.Assignment) (maxsat.Weight, error) {
	var cost maxsat.Weight
	for i, c := range w.Clauses {
		sat := false
		for _, l := range c.Clause {
			d := l.DIMACS()
			v := d
			if v < 0 {
				v = -v
			}
			if v-1 >= len(model) {
				return 0, fmt.Errorf("model has %d variables, clause %d needs %d", len(model), i, v)
			}
			if model[v-1] == (d > 0) {
				sat = true
				break
			}
		}
		if sat {
			continue
		}
		if c.Weight == maxsat.HardWeight {
			return 0, fmt.Errorf("model falsifies hard clause %d", i)
		}
		cost += c.Weight
	}
	return cost, nil
}

// checkModel accepts an OPTIMAL answer whose model satisfies every hard
// clause of w at exactly the reported cost.
func checkModel(w *maxsat.WCNF, r maxsat.Result) error {
	if r.Status != maxsat.Optimal {
		return fmt.Errorf("status %v, want OPTIMAL", r.Status)
	}
	cost, err := evalModel(w, r.Model)
	if err != nil {
		return err
	}
	if cost != r.Cost {
		return fmt.Errorf("model falsifies weight %d, answer reports cost %d", cost, r.Cost)
	}
	return nil
}

// checkCertified accepts an OPTIMAL or UNSATISFIABLE answer whose
// certificate the independent checker accepts for w, and whose model (for
// OPTIMAL) checks out. known ≥ 0 is the optimum the generator states.
func checkCertified(w *maxsat.WCNF, r maxsat.Result, known maxsat.Weight) error {
	switch r.Status {
	case maxsat.Optimal:
		if err := checkModel(w, r); err != nil {
			return err
		}
		if known >= 0 && r.Cost != known {
			return fmt.Errorf("cost %d, generator states %d", r.Cost, known)
		}
	case maxsat.Unsatisfiable:
		if known >= 0 {
			return fmt.Errorf("UNSATISFIABLE, generator states optimum %d", known)
		}
	default:
		return fmt.Errorf("status %v, want a proved verdict", r.Status)
	}
	if len(r.Certificate) == 0 {
		return errors.New("no certificate")
	}
	if err := maxsat.CheckCertificate(w, r.Certificate); err != nil {
		return fmt.Errorf("certificate rejected: %w", err)
	}
	return nil
}

// bmcOptimum is the depth-k optimum the BMC constructions imply (see
// internal/gen/bmc.go): an n-bit counter reaches all-ones once every 2^n
// frames, and a w-bit shift register can hold all-ones from frame w on.
func bmcOptimum(counter bool, n, k int) maxsat.Weight {
	if counter {
		return maxsat.Weight(k - k>>n)
	}
	return maxsat.Weight(min(k, n))
}
