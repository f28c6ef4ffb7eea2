// Package solver implements the linear-system solvers Section 5 of the
// paper lists among the reusable GCM template modules: "fast (parallel)
// linear system solvers for implicit time-differencing schemes".
//
// It provides the Thomas algorithm for tridiagonal systems (vertical
// implicit diffusion in a grid column), the Sherman-Morrison reduction for
// periodic tridiagonal systems (zonal implicit operators on a latitude
// circle), a small dense Gaussian-elimination kernel, and a distributed
// solver for batches of periodic tridiagonal systems over a communicator
// using the substructuring (SPIKE/partition) method: each rank eliminates
// its interior unknowns with three local solves, a 2P-unknown reduced
// system per batch member is solved on rank 0, and the interiors are
// reconstructed locally.
//
// All solvers assume diagonally dominant systems, which implicit diffusion
// operators (I + nu*dt*L) always are.
package solver

import (
	"fmt"
	"math"

	"agcm/internal/comm"
)

// Tridiag solves the tridiagonal system
//
//	a[i]*x[i-1] + b[i]*x[i] + c[i]*x[i+1] = d[i],  i = 0..n-1
//
// with a[0] and c[n-1] ignored, writing the solution into x (which may
// alias d).  It is the Thomas algorithm: O(n), no pivoting, valid for
// diagonally dominant systems.
func Tridiag(a, b, c, d, x []float64) error {
	n := len(b)
	if len(d) != n || len(x) != n {
		return fmt.Errorf("solver: tridiag length mismatch")
	}
	t, err := NewThomas(a, b, c)
	if err != nil {
		return err
	}
	copy(x, d)
	t.Solve(x)
	return nil
}

// Thomas is the Thomas algorithm's elimination of one tridiagonal matrix,
// done once so that any number of right-hand sides are solved in place
// without allocating.  Solve gives the bits Tridiag gives.
type Thomas struct {
	a       []float64 // the sub-diagonal, as given
	cp, den []float64 // the eliminated super-diagonal and the pivots
}

// NewThomas eliminates the matrix with sub-diagonal a, diagonal b and
// super-diagonal c (a[0] and c[n-1] ignored).  It keeps a, so the caller
// must not change it afterwards.
func NewThomas(a, b, c []float64) (*Thomas, error) {
	n := len(b)
	if len(a) != n || len(c) != n {
		return nil, fmt.Errorf("solver: tridiag length mismatch")
	}
	buf := make([]float64, 2*n)
	t := &Thomas{a: a, cp: buf[:n:n], den: buf[n:]}
	for i := 0; i < n; i++ {
		den := b[i]
		if i > 0 {
			den = b[i] - a[i]*t.cp[i-1]
		}
		if den == 0 {
			return nil, fmt.Errorf("solver: zero pivot at row %d", i)
		}
		t.cp[i], t.den[i] = c[i]/den, den
	}
	return t, nil
}

// Solve overwrites d with the solution of the system whose right-hand side
// it holds.  len(d) must be the matrix's order.
func (t *Thomas) Solve(d []float64) {
	n := len(t.den)
	if n == 0 {
		return
	}
	a, cp, den := t.a[:n], t.cp[:n], t.den[:n]
	d = d[:n]
	d[0] /= den[0]
	for i := 1; i < n; i++ {
		d[i] = (d[i] - a[i]*d[i-1]) / den[i]
	}
	for i := n - 2; i >= 0; i-- {
		d[i] -= cp[i] * d[i+1]
	}
}

// PeriodicTridiag solves the cyclic tridiagonal system
//
//	a[i]*x[(i-1+n)%n] + b[i]*x[i] + c[i]*x[(i+1)%n] = d[i]
//
// via the Sherman-Morrison reduction (two Thomas solves).  n must be >= 3.
func PeriodicTridiag(a, b, c, d, x []float64) error {
	n := len(b)
	if n < 3 {
		return fmt.Errorf("solver: periodic system needs n >= 3, got %d", n)
	}
	if len(a) != n || len(c) != n || len(d) != n || len(x) != n {
		return fmt.Errorf("solver: periodic tridiag length mismatch")
	}
	// Write the matrix as T' + u*v^T with gamma = -b[0]:
	// T' is tridiagonal with modified corners, u = (gamma,0,...,a[0])^T? —
	// standard form: u = (gamma, 0, ..., c[n-1])^T, v = (1, 0, ..., a[0]/gamma).
	gamma := -b[0]
	bp := make([]float64, n)
	copy(bp, b)
	bp[0] = b[0] - gamma
	bp[n-1] = b[n-1] - c[n-1]*a[0]/gamma

	y := make([]float64, n)
	if err := Tridiag(a, bp, c, d, y); err != nil {
		return err
	}
	u := make([]float64, n)
	u[0] = gamma
	u[n-1] = c[n-1]
	z := make([]float64, n)
	if err := Tridiag(a, bp, c, u, z); err != nil {
		return err
	}
	den := 1 + z[0] + a[0]*z[n-1]/gamma
	if den == 0 {
		return fmt.Errorf("solver: singular periodic system")
	}
	fact := (y[0] + a[0]*y[n-1]/gamma) / den
	for i := 0; i < n; i++ {
		x[i] = y[i] - fact*z[i]
	}
	return nil
}

// DenseSolve solves the n x n dense system A*x = rhs by Gaussian
// elimination with partial pivoting, overwriting A and rhs; the solution is
// returned in rhs.  A is row-major: A[i*n+j].  The pivot is the largest
// absolute value in its column, the earliest row on ties; a NaN never
// pivots, so a column of zeros and NaNs is singular.
func DenseSolve(a []float64, rhs []float64) error {
	n := len(rhs)
	if len(a) != n*n {
		return fmt.Errorf("solver: dense system shape mismatch: %d vs %d", len(a), n*n)
	}
	for col := 0; col < n; col++ {
		// Partial pivot: the largest absolute value, earliest row on ties.
		piv, best := -1, 0.0
		for r := col; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > best {
				best, piv = v, r
			}
		}
		if piv < 0 {
			return fmt.Errorf("solver: singular dense system at column %d", col)
		}
		if piv != col {
			for j := 0; j < n; j++ {
				a[col*n+j], a[piv*n+j] = a[piv*n+j], a[col*n+j]
			}
			rhs[col], rhs[piv] = rhs[piv], rhs[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a[r*n+j] -= f * a[col*n+j]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := rhs[r]
		for j := r + 1; j < n; j++ {
			s -= a[r*n+j] * rhs[j]
		}
		rhs[r] = s / a[r*n+r]
	}
	return nil
}

// flopsTridiag is the operation-count model for one Thomas solve.
func flopsTridiag(n int) float64 { return 8 * float64(n) }

// localUVW computes the substructuring representation x = u + v*xPrev +
// w*xNext for one local block.
func localUVW(a, b, cc, d []float64) (u, v, w []float64, err error) {
	m := len(b)
	u = make([]float64, m)
	v = make([]float64, m)
	w = make([]float64, m)
	if m == 1 {
		if b[0] == 0 {
			return nil, nil, nil, fmt.Errorf("solver: zero pivot in 1-row block")
		}
		u[0] = d[0] / b[0]
		v[0] = -a[0] / b[0]
		w[0] = -cc[0] / b[0]
		return u, v, w, nil
	}
	e0 := make([]float64, m)
	el := make([]float64, m)
	e0[0] = -a[0]
	el[m-1] = -cc[m-1]
	if err := Tridiag(a, b, cc, d, u); err != nil {
		return nil, nil, nil, err
	}
	if err := Tridiag(a, b, cc, e0, v); err != nil {
		return nil, nil, nil, err
	}
	if err := Tridiag(a, b, cc, el, w); err != nil {
		return nil, nil, nil, err
	}
	return u, v, w, nil
}

// DistributedPeriodicTridiagBatch solves L independent periodic tridiagonal
// systems that share one block distribution over the ranks of c in
// comm-rank order: a[l], b[l], cc[l], d[l] and x[l] are this rank's local
// slices of system l (all of equal length >= 1; each global size must be
// >= 3), and the solution for the local rows is written into x[l].  The
// interface coefficients of all systems travel in a single gather/broadcast
// pair, so the collective cost is amortized over the batch — the pattern
// the polar implicit-diffusion filter needs, with one system per
// (variable, row, layer) line.  Collective over c.
//
// Algorithm (substructuring): express each system's local unknowns as
// x = u + v*xPrev + w*xNext, where xPrev is the last unknown of the
// previous rank and xNext the first of the next rank, via three local
// Thomas solves; gather the six interface coefficients per rank onto rank
// 0; solve the 2P x 2P reduced system over the interface unknowns F_q (the
// first unknown of rank q) and L_q (its last; F == L for single-row
// blocks),
//
//	F_q - v_first*L_{q-1} - w_first*F_{q+1} = u_first
//	L_q - v_last *L_{q-1} - w_last *F_{q+1} = u_last
//
// broadcast the interface values; reconstruct locally.
//
// Virtual time for the rank-0 reduced solves is charged at the cost of a
// cyclic banded elimination, O(P) per system; the in-memory reference
// implementation uses dense elimination for simplicity.
func DistributedPeriodicTridiagBatch(c *comm.Comm, a, b, cc, d, x [][]float64) error {
	L := len(b)
	if len(a) != L || len(cc) != L || len(d) != L || len(x) != L {
		return fmt.Errorf("solver: batch length mismatch")
	}
	if L == 0 {
		return nil
	}
	p := c.Size()
	if p == 1 {
		for l := 0; l < L; l++ {
			if err := PeriodicTridiag(a[l], b[l], cc[l], d[l], x[l]); err != nil {
				return fmt.Errorf("solver: system %d: %w", l, err)
			}
		}
		return nil
	}

	us := make([][]float64, L)
	vs := make([][]float64, L)
	ws := make([][]float64, L)
	coeffs := make([]float64, 0, 6*L)
	for l := 0; l < L; l++ {
		m := len(b[l])
		if len(a[l]) != m || len(cc[l]) != m || len(d[l]) != m || len(x[l]) != m {
			return fmt.Errorf("solver: system %d slice mismatch", l)
		}
		if m < 1 {
			return fmt.Errorf("solver: system %d: empty local block", l)
		}
		u, v, w, err := localUVW(a[l], b[l], cc[l], d[l])
		if err != nil {
			return fmt.Errorf("solver: system %d: %w", l, err)
		}
		us[l], vs[l], ws[l] = u, v, w
		coeffs = append(coeffs, u[0], v[0], w[0], u[m-1], v[m-1], w[m-1])
		c.Proc().Compute(3 * flopsTridiag(m))
	}

	parts := c.GathervInto(0, coeffs, make([][]float64, p))
	var iface []float64
	if c.Rank() == 0 {
		iface = make([]float64, 2*p*L)
		n := 2 * p
		mat := make([]float64, n*n)
		rhs := make([]float64, n)
		fi := func(q int) int { return 2 * ((q + p) % p) }
		li := func(q int) int { return 2*((q+p)%p) + 1 }
		for l := 0; l < L; l++ {
			for i := range mat {
				mat[i] = 0
			}
			for q := 0; q < p; q++ {
				cf := parts[q][6*l : 6*l+6]
				r := fi(q)
				mat[r*n+fi(q)] += 1
				mat[r*n+li(q-1)] -= cf[1]
				mat[r*n+fi(q+1)] -= cf[2]
				rhs[r] = cf[0]
				r = li(q)
				mat[r*n+li(q)] += 1
				mat[r*n+li(q-1)] -= cf[4]
				mat[r*n+fi(q+1)] -= cf[5]
				rhs[r] = cf[3]
			}
			if err := DenseSolve(mat, rhs); err != nil {
				return fmt.Errorf("solver: reduced system %d: %w", l, err)
			}
			copy(iface[2*p*l:2*p*(l+1)], rhs)
		}
		// Charge a cyclic banded elimination, O(P) per system.
		c.Proc().Compute(float64(L) * 30 * float64(p))
	}
	iface = c.BcastInto(0, iface)

	for l := 0; l < L; l++ {
		base := 2 * p * l
		prevLast := iface[base+2*((c.Rank()-1+p)%p)+1]
		nextFirst := iface[base+2*((c.Rank()+1)%p)]
		u, v, w := us[l], vs[l], ws[l]
		for i := range x[l] {
			x[l][i] = u[i] + v[i]*prevLast + w[i]*nextFirst
		}
		c.Proc().Compute(4 * float64(len(x[l])))
	}
	return nil
}
