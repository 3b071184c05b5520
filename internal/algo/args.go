package algo

import (
	"fmt"
	"math"
)

// Args is the caller-chosen part of one query on a graph of N nodes: its
// sources and, for the PageRank family (Rank set), the damping factor and
// convergence tolerance.
type Args struct {
	N       int
	Sources []uint32
	Rank    bool
	Damping float64
	Tol     float64
}

// Check rejects arguments outside the domain the programs are defined on,
// where they would otherwise return a wrong answer with no error: a source
// not below N and, for a Rank query, a damping factor outside (0, 1) or a
// tolerance that is NaN, infinite or negative (a negative tolerance never
// converges; +Inf stops after one iteration). The messages name the
// argument, not the package, because mixenserve returns them to clients.
func (a Args) Check() error {
	for _, s := range a.Sources {
		if int64(s) >= int64(a.N) {
			return fmt.Errorf("source %d out of range (graph has %d nodes)", s, a.N)
		}
	}
	if !a.Rank {
		return nil
	}
	if !(a.Damping > 0 && a.Damping < 1) {
		return fmt.Errorf("damping must be in (0, 1), got %v", a.Damping)
	}
	if math.IsNaN(a.Tol) || math.IsInf(a.Tol, 0) || a.Tol < 0 {
		return fmt.Errorf("tol must be finite and >= 0, got %v", a.Tol)
	}
	return nil
}
