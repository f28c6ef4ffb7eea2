package physics

import (
	"math"

	"agcm/internal/grid"
)

// tables holds every term of the column physics that depends only on the
// latitude row or on the layer index.  Each entry is built from the
// expression the kernel used to evaluate per column, so reading the table
// gives the same bits.  Each rank's Model builds its own, and the models of
// its other workers read them: they are a few rows and layers long.
type tables struct {
	// By latitude row: cos(lat), and the relaxation targets
	// 288 - 60 sin²(lat) and 0.015 cos(lat).
	cosLat, teq, qeq []float64
	// By layer index: the shortwave divisor 1+k, the lapse offset 6k and
	// the moisture scale exp(-0.4k).
	layer1, six, expk []float64
	// The longwave pair weight 1/(1+d) by signed layer distance d, stored at
	// wpair[Nlayers-1+d]: the weights of layer k1 against layers 0, 1, ...
	// are the contiguous run starting at wpair[Nlayers-1-k1].
	wpair []float64
}

func newTables(spec grid.Spec) tables {
	nlat, nl := spec.Nlat, spec.Nlayers
	carve := make([]float64, 3*nlat+5*nl-1)
	next := func(n int) []float64 {
		s := carve[:n:n]
		carve = carve[n:]
		return s
	}
	t := tables{cosLat: next(nlat), teq: next(nlat), qeq: next(nlat),
		layer1: next(nl), six: next(nl), expk: next(nl), wpair: next(2*nl - 1)}
	for j := 0; j < nlat; j++ {
		lat := spec.LatCenter(j)
		t.cosLat[j] = math.Cos(lat)
		t.teq[j] = 288 - 60*math.Sin(lat)*math.Sin(lat)
		t.qeq[j] = 0.015 * math.Cos(lat)
	}
	for k := 0; k < nl; k++ {
		t.wpair[nl-1+k] = 1.0 / float64(1+k)
		t.wpair[nl-1-k] = 1.0 / float64(1+k)
		t.layer1[k] = float64(1 + k)
		t.six[k] = 6 * float64(k)
		t.expk[k] = math.Exp(-0.4 * float64(k))
	}
	return t
}
