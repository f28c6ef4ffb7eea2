package roofline

import (
	"fmt"
	"math"

	"agcm/internal/core"
	"agcm/internal/dynamics"
	"agcm/internal/filter"
	"agcm/internal/physics"
)

// Kernel is one phase's per-step operation counts, derived analytically from
// the grid dimensions and decomposition — no simulation is run to produce
// them.  Counts come in two aggregates: the critical-path rank's share (CP*,
// the largest subdomain plus the polar concentration the filter and physics
// create) and the whole machine's total, so one classification serves both
// the distributed machines (which run at the pace of the slowest rank) and
// the host (which executes every rank's work on one clock).
type Kernel struct {
	// Name is the phase ("dynamics", "physics", "filter", "network").
	Name string
	// Class selects the fitted efficiency coefficient.
	Class string

	// Per-step compute counts.
	CPFlops, CPBytes       float64
	TotalFlops, TotalBytes float64

	// Per-step communication counts (zero for pure-compute kernels).
	CPMsgs, CPNetBytes       float64
	TotalMsgs, TotalNetBytes float64
}

// Intensity returns the kernel's arithmetic intensity in flop/byte on the
// critical path — the roofline x-axis.  Kernels left of the machine's ridge
// point (FlopRate/MemBandwidth) are bandwidth-bound; right of it,
// compute-bound.
func (k Kernel) Intensity() float64 {
	if k.CPBytes == 0 {
		return math.Inf(1)
	}
	return k.CPFlops / k.CPBytes
}

// Counts is the full per-step operation inventory of one configuration.
type Counts struct {
	// Steps is the number of charged steps: measured plus warmup, the way
	// the run executes them.
	Steps int
	// Kernels holds the classified phases in fixed order: dynamics,
	// physics, filter, network.  The filter kernel is absent for
	// FilterNone; the network kernel is absent on a single rank.
	Kernels []Kernel
	// Degrade is how much slower the config's degraded rank (DegradeRank,
	// one slowed virtual processor) computes than its peers; 1 when healthy.
	Degrade float64
}

// Analytic constants averaging the simulation's data-dependent terms
// (daylight fraction, cloud fraction, convection iterations); the dynamics
// and FFT-filter counts are the charges the simulation itself makes
// (dynamics.FlopsPerPoint, dynamics.BytesPerPoint, filter.LineFlops).
// Absolute accuracy is the fitted efficiencies' job; what these must get
// right is the *shape* — how each kernel's work scales with grid dimensions
// — so the fit can tell the classes apart.
const (
	// Physics column model, from internal/physics: base + longwave pairs +
	// k-linear terms with nominal daylight 0.5, cloudiness 0.3 and one
	// convective adjustment iteration on average.
	physBaseFlops   = 950
	physLWPairFlops = 63
	physLayerFlops  = 0.5*(256+0.3*162) + 52 + 104 // sw + cloud + pbl + cu
	physBytesPerCol = 200
	physBytesPerLay = 64   // T and Q, ~4 passes of 8 bytes each
	physImbalNone   = 1.35 // critical-path concentration, unbalanced
	physImbalScheme = 1.08 // residual imbalance after load balancing
	filteredVars    = 3    // u, v, h take the strong filter
	haloFieldsPass1 = 5    // u, v, h, t, q
	haloFieldsPass2 = 3    // u, v, h after smoothing
	diffFlopsPerPt  = 16   // tridiagonal forward+back sweep per point
	wordBytes       = 8
)

// CountKernels classifies the configuration's kernels and returns their
// per-step operation counts for measuredSteps measured steps.  It is a pure
// function of the canonicalized config (equal ConfigKeys yield equal counts)
// and errors on the degenerate inputs core.PredictCostWith rejects.
func CountKernels(cfg core.Config, measuredSteps int) (Counts, error) {
	c, err := cfg.Normalized()
	if err != nil {
		return Counts{}, err
	}
	if measuredSteps < 1 {
		return Counts{}, fmt.Errorf("roofline: need at least one measured step")
	}

	nlat, nlon := c.Spec.Nlat, c.Spec.Nlon
	k := float64(c.Spec.Nlayers)
	py, px := c.MeshPy, c.MeshPx
	ranks := float64(py * px)
	rowsMax := math.Ceil(float64(nlat) / float64(py))
	colsMax := math.Ceil(float64(nlon) / float64(px))
	ptsCP := rowsMax * colsMax * k
	ptsTot := float64(c.Spec.Points())
	n := float64(nlon)

	kernels := make([]Kernel, 0, 4)

	// --- Dynamics: the C-grid finite differences, smoothing and leapfrog
	// update.  Perfectly data-parallel: the critical path is simply the
	// largest subdomain.  Low arithmetic intensity (590 flops per 80 bytes
	// ~ 7 flop/byte) keeps it near the ridge point on most machines.
	kernels = append(kernels, Kernel{
		Name: "dynamics", Class: ClassDynamics,
		CPFlops: dynamics.FlopsPerPoint * ptsCP, CPBytes: dynamics.BytesPerPoint * ptsCP,
		TotalFlops: dynamics.FlopsPerPoint * ptsTot, TotalBytes: dynamics.BytesPerPoint * ptsTot,
	})

	// --- Physics: independent columns whose cost is quadratic in the
	// layer count (the longwave pair exchange) — the term that lets the
	// fit separate physics from the point-linear dynamics.  The critical
	// path carries the paper's Section 3.4 imbalance: day/night and
	// convective columns concentrate on some ranks unless a balancing
	// scheme spreads them.
	colFlops := physBaseFlops + physLWPairFlops*k*(k+1)/2 + physLayerFlops*k
	colBytes := physBytesPerCol + physBytesPerLay*k
	cols := float64(nlat * nlon)
	colsCP := rowsMax * colsMax
	imbal := 1.0
	if ranks > 1 {
		if c.PhysicsScheme == physics.None {
			imbal = physImbalNone
		} else {
			imbal = physImbalScheme
		}
	}
	kernels = append(kernels, Kernel{
		Name: "physics", Class: ClassPhysics,
		CPFlops: colFlops * colsCP * imbal, CPBytes: colBytes * colsCP * imbal,
		TotalFlops: colFlops * cols, TotalBytes: colBytes * cols,
	})

	// --- Filter: the polar spectral filter, whatever its variant.  Work
	// lives only on the filtered rows (|lat| >= 45 degrees, about half the
	// grid), which is exactly why the unbalanced variants' critical path
	// concentrates on the polar ranks.  Row counts come from the filter
	// package itself, so the classification matches the simulation row for
	// row.
	strongRows := float64(len(filter.Rows(c.Spec, filter.Strong)))
	// Filtered rows inside the worst (polar) rank's row block.
	rowsCPF := math.Min(rowsMax, math.Ceil(strongRows/2))
	if py == 1 {
		rowsCPF = strongRows
	}
	linesTot := filteredVars * k * strongRows // machine-wide filtered lines
	linesCPRow := filteredVars * k * rowsCPF  // lines owned by the polar rank's rows
	fftLineFlops := filter.LineFlops(nlon)
	fftLineBytes := 4 * n * wordBytes // re/im read+write
	netMsgs, netBytes := 0.0, 0.0     // filter comm, folded into network below
	netMsgsTot, netBytesTot := 0.0, 0.0
	fil := Kernel{Name: "filter"}
	switch c.Filter {
	case core.FilterConvolutionRing, core.FilterConvolutionTree:
		// O(N^2) physical-space convolution: each rank convolves its own
		// colsMax columns against the full gathered circle.
		fil.Class = ClassFilterConv
		fil.CPFlops = linesCPRow * 2 * n * colsMax
		fil.CPBytes = linesCPRow * (n + 2*colsMax) * wordBytes
		fil.TotalFlops = linesTot * 2 * n * n
		fil.TotalBytes = linesTot * (float64(px)*n + 2*n) * wordBytes
		if px > 1 {
			// Ring or tree allgather of each line's slabs.
			hops := float64(px - 1)
			if c.Filter == core.FilterConvolutionTree {
				hops = math.Ceil(math.Log2(float64(px)))
			}
			netMsgs = linesCPRow * hops
			netBytes = linesCPRow * (n - colsMax) * wordBytes
			netMsgsTot = linesTot * float64(px) * hops
			netBytesTot = linesTot * float64(px-1) * n * wordBytes
		}
	case core.FilterFFT:
		// Transpose within each mesh row: the row block's lines spread
		// over its px ranks, but polar rows still beat equatorial ones.
		linesCP := math.Ceil(linesCPRow / float64(px))
		fil.Class = ClassFilterFFT
		fil.CPFlops = linesCP * fftLineFlops
		fil.CPBytes = linesCP * fftLineBytes
		fil.TotalFlops = linesTot * fftLineFlops
		fil.TotalBytes = linesTot * fftLineBytes
		if px > 1 {
			frac := float64(px-1) / float64(px) // share that must move
			netMsgs = 4 * float64(px-1)         // scatter + gather alltoallv
			netBytes = 2 * linesCPRow * colsMax * wordBytes * frac
			netMsgsTot = netMsgs * ranks
			netBytesTot = 2 * linesTot * n * wordBytes * frac
		}
	case core.FilterFFTBalanced:
		// Global redistribution first: every rank transforms an equal
		// share of all filtered lines — the paper's Section 3.3 fix.
		linesCP := math.Ceil(linesTot / ranks)
		fil.Class = ClassFilterFFT
		fil.CPFlops = linesCP * fftLineFlops
		fil.CPBytes = linesCP * fftLineBytes
		fil.TotalFlops = linesTot * fftLineFlops
		fil.TotalBytes = linesTot * fftLineBytes
		if ranks > 1 {
			netMsgs = 4 * (float64(px-1) + float64(py-1))
			// A polar rank ships out nearly all its lines and receives
			// its balanced share back.
			netBytes = (linesCPRow + linesCP) * colsMax * wordBytes
			netMsgsTot = netMsgs * ranks
			netBytesTot = 2 * linesTot * n * wordBytes * (ranks - 1) / ranks
		}
	case core.FilterFFTRowwise:
		// Section 3.2 approach 1: allgather the circles, then every rank
		// of the mesh row redundantly transforms all its rows' lines —
		// the variant the paper rejected because the redundancy does not
		// shrink with px.
		fil.Class = ClassFilterFFT
		fil.CPFlops = linesCPRow * fftLineFlops
		fil.CPBytes = linesCPRow * (fftLineBytes + n*wordBytes)
		fil.TotalFlops = linesTot * fftLineFlops * float64(px)
		fil.TotalBytes = linesTot * (fftLineBytes + n*wordBytes) * float64(px)
		if px > 1 {
			netMsgs = linesCPRow * float64(px-1)
			netBytes = linesCPRow * (n - colsMax) * wordBytes
			netMsgsTot = linesTot * float64(px) * float64(px-1)
			netBytesTot = linesTot * float64(px-1) * n * wordBytes
		}
	case core.FilterPolarDiffusion:
		// Implicit zonal diffusion by the distributed periodic tridiagonal
		// solver: a banded sweep, memory-bound like the dynamics stencils.
		fil.Class = ClassDynamics
		fil.CPFlops = linesCPRow * diffFlopsPerPt * colsMax
		fil.CPBytes = linesCPRow * 3 * colsMax * wordBytes
		fil.TotalFlops = linesTot * diffFlopsPerPt * n
		fil.TotalBytes = linesTot * 3 * n * wordBytes
		if px > 1 {
			// Pipelined reduced-system exchange along the ring.
			netMsgs = 2 * linesCPRow
			netBytes = 4 * linesCPRow * wordBytes
			netMsgsTot = 2 * linesTot * float64(px)
			netBytesTot = 4 * linesTot * float64(px) * wordBytes
		}
	case core.FilterNone:
		fil = Kernel{} // no filter kernel
	default:
		return Counts{}, fmt.Errorf("roofline: unknown filter variant %v", c.Filter)
	}
	if fil.Name != "" {
		kernels = append(kernels, fil)
	}

	// --- Network: the two per-step halo exchanges (5 fields, then 3 after
	// smoothing) plus the barrier and whatever the filter variant moves.
	if ranks > 1 {
		ew, ns := 0.0, 0.0
		if px > 1 {
			ew = 1
		}
		if py > 1 {
			ns = 1
		}
		haloMsgs := 2 * (2*ew + 2*ns) // two exchanges, packed per direction
		haloBytes := float64(haloFieldsPass1+haloFieldsPass2) *
			(2*ns*colsMax + 2*ew*rowsMax) * k * wordBytes
		barrier := 2 * math.Ceil(math.Log2(ranks))
		kernels = append(kernels, Kernel{
			Name: "network", Class: ClassNetwork,
			CPMsgs:        haloMsgs + barrier + netMsgs,
			CPNetBytes:    haloBytes + netBytes,
			TotalMsgs:     (haloMsgs+barrier)*ranks + netMsgsTot,
			TotalNetBytes: haloBytes*ranks + netBytesTot,
		})
	}

	counts := Counts{Steps: measuredSteps + max(c.WarmupSteps, 0), Kernels: kernels, Degrade: 1}
	if c.DegradeRank >= 0 {
		counts.Degrade = c.DegradeFactor
	}
	return counts, nil
}
