package singlenode

import "agcm/internal/cachesim"

// Node is one paper machine's processor as the Section 3.4 single-node
// experiments see it: the data-cache geometry the address traces replay
// through, and the rates that turn flops and misses into seconds.  These
// describe a cache-resident kernel, not the whole application, so they are
// kept apart from machine.Model's sustained rates.
type Node struct {
	// Name matches the machine.Model of the same computer.
	Name string
	// CacheBytes, CacheLineBytes and CacheWays describe the data cache.
	CacheBytes, CacheLineBytes, CacheWays int
	// KernelFlopRate is the flop rate of a simple, cache-resident inner
	// loop (far above the whole-application FlopRate), and MissPenalty is
	// the stall per cache-line miss.
	KernelFlopRate, MissPenalty float64
}

// Paragon is an i860 XP at 50 MHz with its 16 KB 4-way data cache.
func Paragon() Node {
	return Node{
		Name:       "Intel Paragon",
		CacheBytes: 16384, CacheLineBytes: 32, CacheWays: 4,
		KernelFlopRate: 30e6,    // dual-operation pipelined loops out of cache
		MissPenalty:    0.70e-6, // ~35 cycles at 50 MHz
	}
}

// CrayT3D is a 150 MHz Alpha 21064 with its 8 KB direct-mapped data cache
// and no board cache.
func CrayT3D() Node {
	return Node{
		Name:       "Cray T3D",
		CacheBytes: 8192, CacheLineBytes: 32, CacheWays: 1,
		KernelFlopRate: 25e6,    // EV4 simple loops out of cache
		MissPenalty:    0.16e-6, // ~24 cycles at 150 MHz (no board cache)
	}
}

// IBMSP2 is a 66 MHz POWER2 thin node with its 64 KB 4-way data cache.
func IBMSP2() Node {
	return Node{
		Name:       "IBM SP-2",
		CacheBytes: 65536, CacheLineBytes: 64, CacheWays: 4,
		KernelFlopRate: 60e6,
		MissPenalty:    0.15e-6,
	}
}

// Nodes returns the three paper machines' nodes in paper order, the order
// of machine.All.
func Nodes() []Node { return []Node{Paragon(), CrayT3D(), IBMSP2()} }

// divFlops is the cost of one floating-point division relative to a
// multiply-add on the paper's microprocessors (no pipelined divide).
const divFlops = 15

// commonFlops is the advection routine's per-point work untouched by the
// Section 3.4 optimizations (vertical advection, limiters, stores).
const commonFlops = 30

// wordBytes is the size of one float64.
const wordBytes = 8

// LayoutResult reports the modeled cost of the 7-point Laplace experiment
// on one machine for both storage layouts (Section 3.4, Eqs. 5-6).
type LayoutResult struct {
	Machine string
	// N is the cubic grid edge; M the number of discrete fields.
	N, M int
	// SeparateSeconds and BlockSeconds are the modeled kernel times.
	SeparateSeconds float64
	BlockSeconds    float64
	// SeparateMissRate and BlockMissRate are data-cache miss rates.
	SeparateMissRate float64
	BlockMissRate    float64
	// Speedup = SeparateSeconds / BlockSeconds; the paper reports 5.0 on
	// the Paragon and 2.6 on the T3D for 32^3 arrays.
	Speedup float64
}

// ModelLaplaceLayout replays the Laplace kernel's exact address streams
// through the node's cache geometry and converts flops and misses into
// time.  The separate arrays sit at their natural n^3-aligned bases (as
// Fortran COMMON placed them), which is what produces the pathological
// conflict behaviour the paper observed.
func ModelLaplaceLayout(mach Node, n, m int) LayoutResult {
	arrayBytes := int64(n*n*n) * wordBytes
	points := (n - 2) * (n - 2) * (n - 2)
	flops := float64(points) * float64(m) * 8 // 1 mul + 7 adds per field

	// Separate arrays: field f at base f*arrayBytes, out after them.
	sep := cachesim.New(mach.CacheBytes, mach.CacheLineBytes, mach.CacheWays)
	outBase := int64(m) * arrayBytes
	addr := func(base int64, p int) int64 { return base + int64(p)*wordBytes }
	for x := 1; x < n-1; x++ {
		for y := 1; y < n-1; y++ {
			for z := 1; z < n-1; z++ {
				p := idx3(n, x, y, z)
				for f := 0; f < m; f++ {
					base := int64(f) * arrayBytes
					sep.Access(addr(base, p))
					sep.Access(addr(base, idx3(n, x-1, y, z)))
					sep.Access(addr(base, idx3(n, x+1, y, z)))
					sep.Access(addr(base, idx3(n, x, y-1, z)))
					sep.Access(addr(base, idx3(n, x, y+1, z)))
					sep.Access(addr(base, p-1))
					sep.Access(addr(base, p+1))
				}
				sep.Access(addr(outBase, p))
			}
		}
	}

	// Block array: value (p, f) at p*m+f; out after the block.  The
	// trace follows LaplaceBlock's position-major order, consuming each
	// line completely before moving to the next stencil position.
	blk := cachesim.New(mach.CacheBytes, mach.CacheLineBytes, mach.CacheWays)
	blockOutBase := int64(m) * arrayBytes
	baddr := func(p, f int) int64 { return (int64(p)*int64(m) + int64(f)) * wordBytes }
	for x := 1; x < n-1; x++ {
		for y := 1; y < n-1; y++ {
			for z := 1; z < n-1; z++ {
				p := idx3(n, x, y, z)
				for _, q := range [7]int{p, idx3(n, x-1, y, z), idx3(n, x+1, y, z),
					idx3(n, x, y-1, z), idx3(n, x, y+1, z), p - 1, p + 1} {
					for f := 0; f < m; f++ {
						blk.Access(baddr(q, f))
					}
				}
				blk.Access(blockOutBase + int64(p)*wordBytes)
			}
		}
	}

	sepT := flops/mach.KernelFlopRate + float64(sep.Misses())*mach.MissPenalty
	blkT := flops/mach.KernelFlopRate + float64(blk.Misses())*mach.MissPenalty
	return LayoutResult{
		Machine:          mach.Name,
		N:                n,
		M:                m,
		SeparateSeconds:  sepT,
		BlockSeconds:     blkT,
		SeparateMissRate: sep.MissRate(),
		BlockMissRate:    blk.MissRate(),
		Speedup:          sepT / blkT,
	}
}

// AdvectionResult reports the modeled effect of the paper's single-node
// optimizations on the advection routine.
type AdvectionResult struct {
	Machine string
	// OriginalSeconds and OptimizedSeconds are the modeled kernel times.
	OriginalSeconds  float64
	OptimizedSeconds float64
	// Reduction is 1 - optimized/original; the paper achieved about 35%
	// on a Cray T3D node.
	Reduction float64
}

// ModelAdvection models the advection kernel before and after the paper's
// optimizations: the original recomputes metric terms with two divisions
// per point and walks the arrays layer-outermost (poor line reuse when the
// vertical index is innermost in memory); the optimized form hoists
// reciprocals, multiplies instead of divides, and fuses the layer loop.
func ModelAdvection(mach Node, nlat, nlon, nl int) AdvectionResult {
	points := float64((nlat - 2) * nlon * nl)
	at := func(j, i, k int) int64 { return (int64(j)*int64(nlon)+int64(i))*int64(nl) + int64(k) }
	fBase := int64(0)
	uBase := int64(nlat*nlon*nl) * wordBytes
	vBase := 2 * uBase
	outBase := 3 * uBase

	// Both versions sweep the arrays in the same (j, i, k-innermost)
	// order — the 35% came from arithmetic restructuring, not layout —
	// so one trace serves both; the flop models differ.
	trace := cachesim.New(mach.CacheBytes, mach.CacheLineBytes, mach.CacheWays)
	for j := 1; j < nlat-1; j++ {
		for i := 0; i < nlon; i++ {
			ip := (i + 1) % nlon
			im := (i - 1 + nlon) % nlon
			for k := 0; k < nl; k++ {
				trace.Access(fBase + at(j, ip, k)*wordBytes)
				trace.Access(fBase + at(j, im, k)*wordBytes)
				trace.Access(fBase + at(j+1, i, k)*wordBytes)
				trace.Access(fBase + at(j-1, i, k)*wordBytes)
				trace.Access(uBase + at(j, i, k)*wordBytes)
				trace.Access(vBase + at(j, i, k)*wordBytes)
				trace.Access(outBase + at(j, i, k)*wordBytes)
			}
		}
	}
	// Original: one division, redundant metric recomputation, plus the
	// routine's irreducible surrounding work (vertical terms, limiters)
	// that the optimization does not touch.
	origFlops := points * (divFlops + 14 + commonFlops)
	// Optimized: reciprocals hoisted, divisions replaced by multiplies,
	// redundant computation removed.
	optFlops := points * (9 + commonFlops)

	missSeconds := float64(trace.Misses()) * mach.MissPenalty
	origT := origFlops/mach.KernelFlopRate + missSeconds
	optT := optFlops/mach.KernelFlopRate + missSeconds
	return AdvectionResult{
		Machine:          mach.Name,
		OriginalSeconds:  origT,
		OptimizedSeconds: optT,
		Reduction:        1 - optT/origT,
	}
}
