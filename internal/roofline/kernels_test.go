package roofline

import (
	"reflect"
	"testing"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

func testConfig(py, px int, f core.FilterVariant) core.Config {
	return core.Config{
		Spec:          grid.Spec{Nlon: 72, Nlat: 46, Nlayers: 9},
		Machine:       machine.Paragon(),
		MeshPy:        py,
		MeshPx:        px,
		Filter:        f,
		PhysicsScheme: physics.None,
	}
}

func kernelByName(t *testing.T, counts Counts, name string) Kernel {
	t.Helper()
	for _, k := range counts.Kernels {
		if k.Name == name {
			return k
		}
	}
	t.Fatalf("no %q kernel in %v", name, counts.Kernels)
	return Kernel{}
}

func TestCountKernelsDeterministic(t *testing.T) {
	cfg := testConfig(2, 4, core.FilterFFTBalanced)
	a, err := CountKernels(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CountKernels(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("CountKernels is not a pure function of the config")
	}
	if a.Steps != 3+2 { // measured + default warmup
		t.Fatalf("Steps = %d, want measured+warmup = 5", a.Steps)
	}
}

func TestCountKernelsDegenerate(t *testing.T) {
	if _, err := CountKernels(testConfig(1, 1, core.FilterFFT), 0); err == nil {
		t.Fatal("accepted zero measured steps")
	}
	if _, err := CountKernels(core.Config{}, 1); err == nil {
		t.Fatal("accepted the zero config")
	}
	bad := testConfig(0, 2, core.FilterFFT)
	if _, err := CountKernels(bad, 1); err == nil {
		t.Fatal("accepted a zero-rank mesh")
	}
}

func TestCountKernelsFilterVariants(t *testing.T) {
	cases := []struct {
		filter    core.FilterVariant
		class     Class
		hasFilter bool
	}{
		{core.FilterNone, 0, false},
		{core.FilterConvolutionRing, ClassFilterConv, true},
		{core.FilterConvolutionTree, ClassFilterConv, true},
		{core.FilterFFT, ClassFilterFFT, true},
		{core.FilterFFTBalanced, ClassFilterFFT, true},
		{core.FilterFFTRowwise, ClassFilterFFT, true},
		{core.FilterPolarDiffusion, ClassDynamics, true},
	}
	for _, tc := range cases {
		counts, err := CountKernels(testConfig(2, 4, tc.filter), 2)
		if err != nil {
			t.Fatalf("%v: %v", tc.filter, err)
		}
		found := false
		for _, k := range counts.Kernels {
			if k.Name == "filter" {
				found = true
				if k.Class != tc.class {
					t.Errorf("%v: filter class %q, want %q", tc.filter, k.Class, tc.class)
				}
				if k.CPFlops <= 0 || k.TotalFlops < k.CPFlops {
					t.Errorf("%v: implausible filter counts %+v", tc.filter, k)
				}
			}
		}
		if found != tc.hasFilter {
			t.Errorf("%v: filter kernel present=%v, want %v", tc.filter, found, tc.hasFilter)
		}
		// Multi-rank mesh always has the halo-exchange network kernel.
		net := kernelByName(t, counts, "network")
		if net.Class != ClassNetwork || net.CPMsgs <= 0 || net.CPNetBytes <= 0 {
			t.Errorf("%v: implausible network kernel %+v", tc.filter, net)
		}
	}
}

func TestCountKernelsSingleRankHasNoNetwork(t *testing.T) {
	counts, err := CountKernels(testConfig(1, 1, core.FilterFFT), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range counts.Kernels {
		if k.Class == ClassNetwork {
			t.Fatal("single-rank run must not have a network kernel")
		}
		if k.CPFlops != k.TotalFlops {
			t.Fatalf("on one rank CP and total must agree for %s: %g vs %g",
				k.Name, k.CPFlops, k.TotalFlops)
		}
	}
}

func TestCountKernelsScaling(t *testing.T) {
	small, err := CountKernels(testConfig(1, 1, core.FilterFFT), 2)
	if err != nil {
		t.Fatal(err)
	}
	bigCfg := testConfig(1, 1, core.FilterFFT)
	bigCfg.Spec = grid.Spec{Nlon: 144, Nlat: 90, Nlayers: 9}
	big, err := CountKernels(bigCfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dynamics", "physics", "filter"} {
		ks, kb := kernelByName(t, small, name), kernelByName(t, big, name)
		if kb.TotalFlops <= ks.TotalFlops || kb.TotalBytes <= ks.TotalBytes {
			t.Errorf("%s work did not grow with the grid: %g vs %g flops",
				name, ks.TotalFlops, kb.TotalFlops)
		}
	}
	// Splitting the mesh shrinks the per-rank critical path but not the total.
	whole, err := CountKernels(testConfig(1, 1, core.FilterFFTBalanced), 2)
	if err != nil {
		t.Fatal(err)
	}
	split, err := CountKernels(testConfig(2, 2, core.FilterFFTBalanced), 2)
	if err != nil {
		t.Fatal(err)
	}
	dw, ds := kernelByName(t, whole, "dynamics"), kernelByName(t, split, "dynamics")
	if ds.CPFlops >= dw.CPFlops {
		t.Fatalf("critical-path dynamics did not shrink under decomposition: %g vs %g",
			ds.CPFlops, dw.CPFlops)
	}
	if ds.TotalFlops != dw.TotalFlops {
		t.Fatalf("total dynamics flops changed under decomposition: %g vs %g",
			ds.TotalFlops, dw.TotalFlops)
	}
}
