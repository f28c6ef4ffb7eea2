package roofline

import (
	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

// CalibPoint is one machine-grid calibration configuration: a labelled
// core.Config the observe side runs and the fit side prices.
type CalibPoint struct {
	Label string
	Cfg   core.Config
}

// MachineCalibPoints is the calibration design for a modelled machine: the
// paper's standard 2x2.5x9 FFT+LB runs across the processor-mesh grid, plus
// fit-only decorrelation points.  The mesh sweep alone is nearly collinear —
// every kernel's work shrinks as 1/ranks, so least squares cannot tell the
// classes apart.  The convolution-filter runs give the filter-conv column
// real data and split the filter from the dynamics, and the 5- and 15-layer
// runs split the physics (quadratic in the layer count through the longwave
// pair exchange) from the dynamics (linear).  Eleven points over at most
// four fitted classes keep the residuals honest.
func MachineCalibPoints(m *machine.Model) []CalibPoint {
	mk := func(label string, layers, py, px int, v core.FilterVariant) CalibPoint {
		return CalibPoint{
			Label: label,
			Cfg: core.Config{
				Spec: grid.TwoByTwoPointFive(layers), Machine: m,
				MeshPy: py, MeshPx: px,
				Filter:        v,
				PhysicsScheme: physics.None,
			},
		}
	}
	return []CalibPoint{
		mk("1x1", 9, 1, 1, core.FilterFFTBalanced),
		mk("2x2", 9, 2, 2, core.FilterFFTBalanced),
		mk("4x4", 9, 4, 4, core.FilterFFTBalanced),
		mk("4x8", 9, 4, 8, core.FilterFFTBalanced),
		mk("8x8", 9, 8, 8, core.FilterFFTBalanced),
		mk("8x30", 9, 8, 30, core.FilterFFTBalanced),
		mk("1x1/conv", 9, 1, 1, core.FilterConvolutionRing),
		mk("2x2/conv", 9, 2, 2, core.FilterConvolutionRing),
		mk("4x4/conv", 9, 4, 4, core.FilterConvolutionRing),
		mk("1x1/k5", 5, 1, 1, core.FilterFFTBalanced),
		mk("1x1/k15", 15, 1, 1, core.FilterFFTBalanced),
	}
}

// ComputeClasses are the classes fitted on the machine grid: the network
// constants derive exactly from the machine model the simulation charges, so
// the network efficiency stays at its derived unit value instead of
// absorbing compute error.
var ComputeClasses = []Class{ClassDynamics, ClassPhysics, ClassFilterConv, ClassFilterFFT}
