package matrix

import (
	"errors"
	"math"
)

// ErrNoConvergence is returned when an iterative decomposition fails to
// converge within its iteration budget. This indicates pathological input
// (NaN/Inf entries) rather than an expected runtime condition.
var ErrNoConvergence = errors.New("matrix: iteration did not converge")

// EigSym computes the full eigendecomposition of the symmetric matrix s:
//
//	s = V · diag(vals) · Vᵀ
//
// with eigenvalues sorted in descending order and the columns of V holding
// the corresponding orthonormal eigenvectors. The implementation is the
// classic Householder tridiagonalization followed by the implicitly shifted
// QL iteration (tred2/tql2), which costs O(d³) and is the default fast path
// for the Gram matrices used throughout this repository. See JacobiEigSym
// for the slower rotation-based reference used in tests.
func EigSym(s *Sym) (vals []float64, V *Dense, err error) {
	return EigSymWork(s, nil)
}

// EigSymWork is EigSym with caller-provided scratch: every buffer — the
// returned eigenvalue slice and eigenvector matrix included — lives in ws
// and is valid only until the workspace's next call. A nil ws allocates a
// fresh workspace (exactly EigSym). The hot factorization loops (the FD
// sketch's blocked compress, the site runtimes) pass a per-instance
// workspace so repeated decompositions of a fixed dimension allocate
// nothing. A matrix with a NaN or ±Inf entry fails with ErrNoConvergence.
func EigSymWork(s *Sym, ws *EigWorkspace) (vals []float64, V *Dense, err error) {
	for _, v := range s.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, ErrNoConvergence
		}
	}
	if ws == nil {
		ws = &EigWorkspace{}
	}
	n := s.n
	ws.reserve(n)
	V = ws.v
	copy(V.data, s.data)
	d, e := ws.d, ws.e
	if n == 0 {
		return d, V, nil
	}
	tred2(V, d, e)
	if err := tql2(V, d, e); err != nil {
		return nil, nil, err
	}
	sortEigDescWork(d, V, ws)
	return d, V, nil
}

// tred2 reduces the symmetric matrix stored in V to tridiagonal form using
// Householder similarity transformations, accumulating the orthogonal
// transform in V. On return d holds the diagonal and e the subdiagonal
// (e[0] = 0). This is a port of the public-domain EISPACK/JAMA routine.
func tred2(V *Dense, d, e []float64) {
	n := V.rows
	for j := 0; j < n; j++ {
		d[j] = V.at(n-1, j)
	}

	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = V.at(i-1, j)
				V.set(i, j, 0)
				V.set(j, i, 0)
			}
		} else {
			// Generate the Householder vector.
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}

			// Apply the similarity transformation to remaining columns.
			for j := 0; j < i; j++ {
				f = d[j]
				V.set(j, i, f)
				g = e[j] + V.at(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += V.at(k, j) * d[k]
					e[k] += V.at(k, j) * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					V.add(k, j, -(f*e[k] + g*d[k]))
				}
				d[j] = V.at(i-1, j)
				V.set(i, j, 0)
			}
		}
		d[i] = h
	}

	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		V.set(n-1, i, V.at(i, i))
		V.set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = V.at(k, i+1) / h
			}
			for j := 0; j <= i; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += V.at(k, i+1) * V.at(k, j)
				}
				for k := 0; k <= i; k++ {
					V.add(k, j, -g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			V.set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = V.at(n-1, j)
		V.set(n-1, j, 0)
	}
	V.set(n-1, n-1, 1)
	e[0] = 0
}

// tql2 finds the eigenvalues and eigenvectors of a symmetric tridiagonal
// matrix by the implicitly shifted QL method, updating the accumulated
// transform in V. Port of the public-domain EISPACK/JAMA routine with an
// iteration cap added.
func tql2(V *Dense, d, e []float64) error {
	n := V.rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	const maxIter = 100
	f, tst1 := 0.0, 0.0
	eps := math.Ldexp(1, -52)
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m == n {
			return ErrNoConvergence // only a NaN defeats the test above
		}

		// If m == l, d[l] is an eigenvalue; otherwise iterate.
		if m > l {
			for iter := 0; ; iter++ {
				if iter > maxIter {
					return ErrNoConvergence
				}
				// Compute the implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h

				// The implicit QL transformation.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])

					// Accumulate the transformation.
					for k := 0; k < n; k++ {
						h = V.at(k, i+1)
						V.set(k, i+1, s*V.at(k, i)+c*h)
						V.set(k, i, c*V.at(k, i)-s*h)
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p

				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// sortEigDesc sorts eigenvalues in descending order, permuting the columns of
// V to match.
func sortEigDesc(d []float64, V *Dense) {
	ws := &EigWorkspace{}
	ws.reserveSort(len(d))
	sortEigDescWork(d, V, ws)
}

// sortEigDescWork is sortEigDesc using the workspace's permutation buffers.
func sortEigDescWork(d []float64, V *Dense, ws *EigWorkspace) {
	n := len(d)
	idx := ws.idx[:n]
	for i := range idx {
		idx[i] = i
	}
	// Stable insertion sort on the permutation, descending by eigenvalue:
	// the same ordering sort.SliceStable produces (stable sorts agree on
	// their output permutation) without its per-call reflection allocation,
	// which would otherwise be the only allocation left on the blocked
	// ingest paths' steady state. n is at most a few hundred here, so the
	// O(n²) worst case is noise next to the O(n³) decomposition.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && d[idx[j-1]] < d[idx[j]]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}

	sorted := ws.sorted[:n]
	perm := reuseDense(ws.perm, V.rows, V.cols, false)
	for newCol, oldCol := range idx {
		sorted[newCol] = d[oldCol]
		for r := 0; r < V.rows; r++ {
			perm.Set(r, newCol, V.at(r, oldCol))
		}
	}
	copy(d, sorted)
	copy(V.data, perm.data)
}

// TopEigSym returns the k largest eigenvalues of s and their eigenvectors
// (as the first k columns of the returned matrix). k is clamped to [0, d].
func TopEigSym(s *Sym, k int) (vals []float64, V *Dense, err error) {
	vals, V, err = EigSym(s)
	if err != nil {
		return nil, nil, err
	}
	if k < 0 {
		k = 0
	}
	if k > len(vals) {
		k = len(vals)
	}
	top := NewDense(V.rows, k)
	for j := 0; j < k; j++ {
		for i := 0; i < V.rows; i++ {
			top.Set(i, j, V.at(i, j))
		}
	}
	return vals[:k], top, nil
}
