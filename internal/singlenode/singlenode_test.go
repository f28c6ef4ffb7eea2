package singlenode

import (
	"math"
	"math/rand"
	"testing"

	"agcm/internal/machine"
)

func randSlice(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestPointwiseVecMulVariantsAgree(t *testing.T) {
	a := randSlice(1024, 1)
	b := randSlice(16, 2)
	c1 := make([]float64, len(a))
	c2 := make([]float64, len(a))
	PointwiseVecMul(a, b, c1)
	PointwiseVecMulOptimized(a, b, c2)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("variants differ at %d: %g vs %g", i, c1[i], c2[i])
		}
		if want := a[i] * b[i%16]; c1[i] != want {
			t.Fatalf("wrong value at %d", i)
		}
	}
}

func TestPointwiseVecMulPanicsOnBadShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for indivisible lengths")
		}
	}()
	PointwiseVecMul(make([]float64, 10), make([]float64, 3), make([]float64, 10))
}

func TestBLAS1Routines(t *testing.T) {
	x := randSlice(100, 3)
	y := randSlice(100, 4)
	yCopy := append([]float64(nil), y...)
	Daxpy(2.5, x, y)
	for i := range y {
		if want := yCopy[i] + 2.5*x[i]; math.Abs(y[i]-want) > 1e-15 {
			t.Fatalf("daxpy wrong at %d", i)
		}
	}
	y2 := append([]float64(nil), yCopy...)
	DaxpyUnrolled4(2.5, x, y2)
	for i := range y2 {
		if y2[i] != y[i] {
			t.Fatalf("unrolled daxpy differs at %d", i)
		}
	}
	Dscal(0.5, x)
	Dcopy(x, y)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("dcopy wrong at %d", i)
		}
	}
}

func TestLaplaceBlockMatchesSeparate(t *testing.T) {
	const n, m = 12, 5
	fields := make([][]float64, m)
	for f := range fields {
		fields[f] = randSlice(n*n*n, int64(10+f))
	}
	out1 := make([]float64, n*n*n)
	out2 := make([]float64, n*n*n)
	LaplaceSeparate(fields, out1, n)
	LaplaceBlock(PackBlock(fields), m, out2, n)
	for i := range out1 {
		if math.Abs(out1[i]-out2[i]) > 1e-11 {
			t.Fatalf("layouts disagree at %d: %g vs %g", i, out1[i], out2[i])
		}
	}
}

func TestPackBlockLayout(t *testing.T) {
	fields := [][]float64{{1, 2}, {10, 20}, {100, 200}}
	block := PackBlock(fields)
	want := []float64{1, 10, 100, 2, 20, 200}
	for i := range want {
		if block[i] != want[i] {
			t.Fatalf("PackBlock = %v", block)
		}
	}
}

func TestAdvectionVariantsAgree(t *testing.T) {
	const nlat, nlon, nl = 16, 24, 5
	sz := nlat * nlon * nl
	u := randSlice(sz, 20)
	v := randSlice(sz, 21)
	f := randSlice(sz, 22)
	cosLat := make([]float64, nlat)
	for j := range cosLat {
		cosLat[j] = math.Cos((float64(j)/nlat - 0.5) * 3)
	}
	out1 := make([]float64, sz)
	out2 := make([]float64, sz)
	AdvectionOriginal(u, v, f, out1, nlat, nlon, nl, cosLat, 6.4e6, 0.1, 0.1)
	AdvectionOptimized(u, v, f, out2, nlat, nlon, nl, cosLat, 6.4e6, 0.1, 0.1)
	for i := range out1 {
		if math.Abs(out1[i]-out2[i]) > 1e-18 {
			t.Fatalf("advection variants differ at %d: %g vs %g", i, out1[i], out2[i])
		}
	}
}

func TestModelLaplaceLayoutReproducesPaper(t *testing.T) {
	// Section 3.4: "a speed-up a factor of 5 over the use of separate
	// arrays on the Intel Paragon, and a speed-up factor of 2.6 ... on
	// Cray T3D" for 32^3 arrays.
	p := ModelLaplaceLayout(Paragon(), 32, 12)
	if p.Speedup < 4.0 || p.Speedup > 6.5 {
		t.Errorf("Paragon block-array speedup %.2f outside [4, 6.5] (paper: 5.0)", p.Speedup)
	}
	c := ModelLaplaceLayout(CrayT3D(), 32, 12)
	if c.Speedup < 2.0 || c.Speedup > 3.6 {
		t.Errorf("T3D block-array speedup %.2f outside [2, 3.6] (paper: 2.6)", c.Speedup)
	}
	if p.Speedup <= c.Speedup {
		t.Errorf("Paragon speedup %.2f not above T3D %.2f as the paper found", p.Speedup, c.Speedup)
	}
	// The mechanism: separate arrays thrash the cache.
	if p.SeparateMissRate < 2*p.BlockMissRate {
		t.Errorf("separate-array miss rate %.2f not clearly above block %.2f",
			p.SeparateMissRate, p.BlockMissRate)
	}
}

func TestModelAdvectionReproducesPaper(t *testing.T) {
	// "we were able to reduce its execution time on a single Cray T3D
	// node by about 35%".
	r := ModelAdvection(CrayT3D(), 90, 144, 9)
	if r.Reduction < 0.22 || r.Reduction > 0.45 {
		t.Errorf("T3D advection reduction %.1f%% outside [22%%, 45%%] (paper: 35%%)",
			r.Reduction*100)
	}
	if r.OptimizedSeconds >= r.OriginalSeconds {
		t.Errorf("optimization did not help")
	}
	p := ModelAdvection(Paragon(), 90, 144, 9)
	if p.Reduction <= 0 {
		t.Errorf("Paragon advection reduction non-positive")
	}
}

func TestModelDeterministic(t *testing.T) {
	a := ModelLaplaceLayout(CrayT3D(), 16, 6)
	b := ModelLaplaceLayout(CrayT3D(), 16, 6)
	if a != b {
		t.Fatal("ModelLaplaceLayout not deterministic")
	}
}

// --- Native benchmarks: the same experiments on the host CPU -------------

func BenchmarkLaplaceSeparate32(b *testing.B) {
	const n, m = 32, 12
	fields := make([][]float64, m)
	for f := range fields {
		fields[f] = randSlice(n*n*n, int64(f))
	}
	out := make([]float64, n*n*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LaplaceSeparate(fields, out, n)
	}
}

func BenchmarkLaplaceBlock32(b *testing.B) {
	const n, m = 32, 12
	fields := make([][]float64, m)
	for f := range fields {
		fields[f] = randSlice(n*n*n, int64(f))
	}
	block := PackBlock(fields)
	out := make([]float64, n*n*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LaplaceBlock(block, m, out, n)
	}
}

func BenchmarkAdvectionOriginal(b *testing.B) {
	const nlat, nlon, nl = 90, 144, 9
	sz := nlat * nlon * nl
	u, v, f := randSlice(sz, 1), randSlice(sz, 2), randSlice(sz, 3)
	out := make([]float64, sz)
	cosLat := make([]float64, nlat)
	for j := range cosLat {
		cosLat[j] = 0.1 + float64(j%45)/45
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AdvectionOriginal(u, v, f, out, nlat, nlon, nl, cosLat, 6.4e6, 0.04, 0.03)
	}
}

func BenchmarkAdvectionOptimized(b *testing.B) {
	const nlat, nlon, nl = 90, 144, 9
	sz := nlat * nlon * nl
	u, v, f := randSlice(sz, 1), randSlice(sz, 2), randSlice(sz, 3)
	out := make([]float64, sz)
	cosLat := make([]float64, nlat)
	for j := range cosLat {
		cosLat[j] = 0.1 + float64(j%45)/45
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AdvectionOptimized(u, v, f, out, nlat, nlon, nl, cosLat, 6.4e6, 0.04, 0.03)
	}
}

func BenchmarkPointwiseVecMul(b *testing.B) {
	a := randSlice(1<<16, 1)
	vb := randSlice(64, 2)
	c := make([]float64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PointwiseVecMul(a, vb, c)
	}
}

func BenchmarkPointwiseVecMulOptimized(b *testing.B) {
	a := randSlice(1<<16, 1)
	vb := randSlice(64, 2)
	c := make([]float64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PointwiseVecMulOptimized(a, vb, c)
	}
}

func BenchmarkDaxpy(b *testing.B) {
	x := randSlice(1<<16, 1)
	y := randSlice(1<<16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Daxpy(1.0001, x, y)
	}
}

func BenchmarkDaxpyUnrolled4(b *testing.B) {
	x := randSlice(1<<16, 1)
	y := randSlice(1<<16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DaxpyUnrolled4(1.0001, x, y)
	}
}

// TestNodesMatchPaperMachines: the Section 3.4 tables list the nodes under
// the paper machines' names, in paper order, and every geometry must be one
// the cache simulator accepts.
func TestNodesMatchPaperMachines(t *testing.T) {
	nodes, models := Nodes(), machine.All()
	if len(nodes) != len(models) {
		t.Fatalf("%d nodes for %d paper machines", len(nodes), len(models))
	}
	for i, n := range nodes {
		if n.Name != models[i].Name {
			t.Errorf("node %d is %q, machine %d is %q", i, n.Name, i, models[i].Name)
		}
		if n.CacheBytes%(n.CacheLineBytes*n.CacheWays) != 0 || n.KernelFlopRate <= 0 || n.MissPenalty <= 0 {
			t.Errorf("%s: bad node %+v", n.Name, n)
		}
		// A cache-resident kernel outruns the whole application.
		if n.KernelFlopRate <= models[i].FlopRate {
			t.Errorf("%s: kernel rate %g not above the sustained %g", n.Name, n.KernelFlopRate, models[i].FlopRate)
		}
	}
}
