package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/matrix"
)

// Exact answers the checks compare against, computed from the
// benchmark's own inputs with plain loops rather than the program's
// kernels.

// gramOf returns AᵀA of rows as a dense d×d row-major slice.
func gramOf(rows [][]float64, d int) []float64 {
	g := make([]float64, d*d)
	for _, r := range rows {
		for i, ri := range r {
			if ri == 0 {
				continue
			}
			gi := g[i*d : (i+1)*d]
			for j, rj := range r {
				gi[j] += ri * rj
			}
		}
	}
	return g
}

// addTo accumulates src into dst.
func addTo(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// covErrRatio returns ‖AᵀA − BᵀB‖₂ / (ε‖A‖²_F): the matrix protocols'
// error as a share of the paper's bound, which must not exceed 1.
func covErrRatio(exact, approx []float64, d int, eps float64) (float64, error) {
	var fro float64
	for i := range d {
		fro += exact[i*d+i]
	}
	if fro <= 0 {
		return 0, fmt.Errorf("empty matrix")
	}
	norm, err := matrix.CovarianceDiffNorm(matrix.SymFromRaw(d, exact), matrix.SymFromRaw(d, approx))
	if err != nil {
		return 0, err
	}
	return norm / (eps * fro), nil
}

// flatGram flattens a JSON Gram answer, checking its shape.
func flatGram(g [][]float64, d int) ([]float64, error) {
	if len(g) != d {
		return nil, fmt.Errorf("gram has %d rows, want %d", len(g), d)
	}
	out := make([]float64, 0, d*d)
	for _, row := range g {
		if len(row) != d {
			return nil, fmt.Errorf("gram row of %d values, want %d", len(row), d)
		}
		out = append(out, row...)
	}
	return out, nil
}

// digester fingerprints generated inputs, so two runs can show they
// measured the same data.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (g *digester) floats(xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		g.h.Write(b[:])
	}
}

func (g *digester) bytes(p []byte) { g.h.Write(p) }

func (g *digester) sum() string { return hex.EncodeToString(g.h.Sum(nil))[:16] }
