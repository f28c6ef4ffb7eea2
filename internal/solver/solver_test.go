package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"agcm/internal/comm"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// randSystem builds a random diagonally dominant (cyclic) tridiagonal
// system of size n and a known solution, returning (a, b, c, want, d)
// with d computed as A*want under the given periodicity.
func randSystem(n int, periodic bool, seed int64) (a, b, c, want, d []float64) {
	rng := rand.New(rand.NewSource(seed))
	a = make([]float64, n)
	b = make([]float64, n)
	c = make([]float64, n)
	want = make([]float64, n)
	d = make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Float64() - 0.5
		c[i] = rng.Float64() - 0.5
		b[i] = 2 + rng.Float64() // diagonally dominant
		want[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		d[i] = b[i] * want[i]
		if periodic {
			d[i] += a[i]*want[(i-1+n)%n] + c[i]*want[(i+1)%n]
		} else {
			if i > 0 {
				d[i] += a[i] * want[i-1]
			}
			if i < n-1 {
				d[i] += c[i] * want[i+1]
			}
		}
	}
	return a, b, c, want, d
}

func maxErr(got, want []float64) float64 {
	m := 0.0
	for i := range got {
		if e := math.Abs(got[i] - want[i]); e > m {
			m = e
		}
	}
	return m
}

func TestTridiagSolvesRandomSystems(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 100} {
		a, b, c, want, d := randSystem(n, false, int64(n))
		x := make([]float64, n)
		if err := Tridiag(a, b, c, d, x); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e := maxErr(x, want); e > 1e-10 {
			t.Fatalf("n=%d: error %g", n, e)
		}
	}
}

func TestTridiagAliasedOutput(t *testing.T) {
	a, b, c, want, d := randSystem(20, false, 7)
	if err := Tridiag(a, b, c, d, d); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(d, want); e > 1e-10 {
		t.Fatalf("aliased solve error %g", e)
	}
}

func TestTridiagErrors(t *testing.T) {
	if err := Tridiag(make([]float64, 2), make([]float64, 3),
		make([]float64, 3), make([]float64, 3), make([]float64, 3)); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := Tridiag([]float64{0}, []float64{0}, []float64{0},
		[]float64{1}, make([]float64, 1)); err == nil {
		t.Error("zero pivot accepted")
	}
	if err := Tridiag(nil, nil, nil, nil, nil); err != nil {
		t.Errorf("empty system should be a no-op: %v", err)
	}
}

func TestPeriodicTridiagSolvesRandomSystems(t *testing.T) {
	for _, n := range []int{3, 4, 8, 30, 144} {
		a, b, c, want, d := randSystem(n, true, int64(100+n))
		x := make([]float64, n)
		if err := PeriodicTridiag(a, b, c, d, x); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e := maxErr(x, want); e > 1e-9 {
			t.Fatalf("n=%d: error %g", n, e)
		}
	}
}

func TestPeriodicTridiagRejectsTinySystems(t *testing.T) {
	if err := PeriodicTridiag(make([]float64, 2), make([]float64, 2),
		make([]float64, 2), make([]float64, 2), make([]float64, 2)); err == nil {
		t.Error("n=2 accepted")
	}
}

func TestPeriodicTridiagProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%60 + 3
		a, b, c, want, d := randSystem(n, true, seed)
		x := make([]float64, n)
		if err := PeriodicTridiag(a, b, c, d, x); err != nil {
			return false
		}
		return maxErr(x, want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDenseSolve(t *testing.T) {
	// A fixed well-conditioned system.
	a := []float64{4, 1, 0, 1, 3, -1, 2, -1, 5}
	want := []float64{1, -2, 3}
	rhs := make([]float64, 3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			rhs[r] += a[r*3+c] * want[c]
		}
	}
	if err := DenseSolve(append([]float64(nil), a...), rhs); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(rhs, want); e > 1e-12 {
		t.Fatalf("dense error %g", e)
	}
}

func TestDenseSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := []float64{0, 1, 1, 0}
	rhs := []float64{2, 3}
	if err := DenseSolve(a, rhs); err != nil {
		t.Fatal(err)
	}
	if rhs[0] != 3 || rhs[1] != 2 {
		t.Fatalf("pivoted solve = %v", rhs)
	}
}

func TestDenseSolveSingular(t *testing.T) {
	if err := DenseSolve([]float64{1, 2, 2, 4}, []float64{1, 2}); err == nil {
		t.Error("singular matrix accepted")
	}
	if err := DenseSolve([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if err := DenseSolve([]float64{math.NaN(), 1, math.NaN(), 1}, []float64{1, 2}); err == nil {
		t.Error("all-NaN pivot column accepted")
	}
}

// solveOne solves one distributed system as a batch of one.
func solveOne(c *comm.Comm, a, b, cc, d, x []float64) error {
	return DistributedPeriodicTridiagBatch(c,
		[][]float64{a}, [][]float64{b}, [][]float64{cc}, [][]float64{d}, [][]float64{x})
}

func TestDistributedPeriodicTridiagMatchesSerial(t *testing.T) {
	// Property: the distributed solve of a batch of one system over any
	// rank count equals the serial periodic solve of the same global system.
	for _, tc := range []struct{ n, p int }{
		{12, 1}, {12, 2}, {12, 3}, {12, 4}, {30, 5}, {31, 4}, {8, 8}, {144, 8},
	} {
		tc := tc
		t.Run(fmt.Sprintf("n%d_p%d", tc.n, tc.p), func(t *testing.T) {
			a, b, c, want, d := randSystem(tc.n, true, int64(tc.n*100+tc.p))
			m := sim.New(tc.p, machine.CrayT3D())
			results := make([][]float64, tc.p)
			_, err := m.Run(func(proc *sim.Proc) error {
				world := comm.World(proc)
				lo := world.Rank() * tc.n / tc.p
				hi := (world.Rank() + 1) * tc.n / tc.p
				x := make([]float64, hi-lo)
				err := solveOne(world, a[lo:hi], b[lo:hi], c[lo:hi], d[lo:hi], x)
				if err != nil {
					return err
				}
				results[world.Rank()] = x
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			for _, r := range results {
				got = append(got, r...)
			}
			if e := maxErr(got, want); e > 1e-8 {
				t.Fatalf("distributed error %g vs exact solution", e)
			}
		})
	}
}

func TestDistributedBatchMatchesSerial(t *testing.T) {
	// L independent systems solved in one batched call must match the
	// serial periodic solutions, on several rank counts.
	const n, L = 24, 7
	type sys struct{ a, b, c, want, d []float64 }
	systems := make([]sys, L)
	for l := range systems {
		a, b, c, want, d := randSystem(n, true, int64(500+l))
		systems[l] = sys{a, b, c, want, d}
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			results := make([][][]float64, p) // [rank][system] local solution
			m := sim.New(p, machine.CrayT3D())
			_, err := m.Run(func(proc *sim.Proc) error {
				world := comm.World(proc)
				lo := world.Rank() * n / p
				hi := (world.Rank() + 1) * n / p
				as := make([][]float64, L)
				bs := make([][]float64, L)
				cs := make([][]float64, L)
				ds := make([][]float64, L)
				xs := make([][]float64, L)
				for l := range systems {
					as[l] = systems[l].a[lo:hi]
					bs[l] = systems[l].b[lo:hi]
					cs[l] = systems[l].c[lo:hi]
					ds[l] = systems[l].d[lo:hi]
					xs[l] = make([]float64, hi-lo)
				}
				if err := DistributedPeriodicTridiagBatch(world, as, bs, cs, ds, xs); err != nil {
					return err
				}
				results[world.Rank()] = xs
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for l := range systems {
				var got []float64
				for rank := 0; rank < p; rank++ {
					got = append(got, results[rank][l]...)
				}
				if e := maxErr(got, systems[l].want); e > 1e-8 {
					t.Fatalf("system %d: error %g", l, e)
				}
			}
		})
	}
}

func TestDistributedBatchEmptyAndMismatch(t *testing.T) {
	m := sim.New(2, machine.CrayT3D())
	_, err := m.Run(func(proc *sim.Proc) error {
		world := comm.World(proc)
		// Empty batch is a no-op.
		if err := DistributedPeriodicTridiagBatch(world, nil, nil, nil, nil, nil); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(func(proc *sim.Proc) error {
		world := comm.World(proc)
		bad := [][]float64{make([]float64, 3)}
		good := [][]float64{make([]float64, 4)}
		return DistributedPeriodicTridiagBatch(world, bad, good, good, good, good)
	})
	if err == nil {
		t.Fatal("slice mismatch accepted")
	}
	_, err = m.Run(func(proc *sim.Proc) error {
		return solveOne(comm.World(proc), nil, nil, nil, nil, nil)
	})
	if err == nil {
		t.Fatal("empty local block accepted")
	}
}

func TestDistributedSolveChargesTime(t *testing.T) {
	a, b, c, _, d := randSystem(64, true, 3)
	m := sim.New(4, machine.Paragon())
	res, err := m.Run(func(proc *sim.Proc) error {
		world := comm.World(proc)
		lo, hi := world.Rank()*16, world.Rank()*16+16
		x := make([]float64, 16)
		return solveOne(world, a[lo:hi], b[lo:hi], c[lo:hi], d[lo:hi], x)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxClock() <= 0 {
		t.Fatal("no virtual time charged")
	}
	if res.TotalMessages() == 0 {
		t.Fatal("no messages counted for a distributed solve")
	}
}

func TestDistributedLengthMismatch(t *testing.T) {
	m := sim.New(2, machine.Paragon())
	_, err := m.Run(func(proc *sim.Proc) error {
		world := comm.World(proc)
		return solveOne(world,
			make([]float64, 3), make([]float64, 4), make([]float64, 4),
			make([]float64, 4), make([]float64, 4))
	})
	if err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func BenchmarkTridiag144(b *testing.B) {
	a, bb, c, _, d := randSystem(144, false, 1)
	x := make([]float64, 144)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Tridiag(a, bb, c, d, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeriodicTridiag144(b *testing.B) {
	a, bb, c, _, d := randSystem(144, true, 1)
	x := make([]float64, 144)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := PeriodicTridiag(a, bb, c, d, x); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceTridiag is the Thomas algorithm as Tridiag computed it before
// the elimination was split from the solve: the reference for their bits.
func referenceTridiag(a, b, c, d, x []float64) {
	n := len(b)
	cp := make([]float64, n)
	dp := make([]float64, n)
	cp[0] = c[0] / b[0]
	dp[0] = d[0] / b[0]
	for i := 1; i < n; i++ {
		den := b[i] - a[i]*cp[i-1]
		cp[i] = c[i] / den
		dp[i] = (d[i] - a[i]*dp[i-1]) / den
	}
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
}

// TestThomasMatchesReference: one elimination solves many right-hand sides
// in place, and Tridiag, bit for bit as the one-shot algorithm did.
func TestThomasMatchesReference(t *testing.T) {
	for n := 1; n <= 40; n++ {
		a, b, c, _, _ := randSystem(n, false, int64(n))
		th, err := NewThomas(a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		for rhs := 0; rhs < 5; rhs++ {
			_, _, _, _, d := randSystem(n, false, int64(1000*n+rhs))
			want := make([]float64, n)
			referenceTridiag(a, b, c, d, want)
			got := append([]float64(nil), d...)
			th.Solve(got)
			viaTridiag := make([]float64, n)
			if err := Tridiag(a, b, c, d, viaTridiag); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
					math.Float64bits(viaTridiag[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d rhs %d: x[%d] = %v (Solve), %v (Tridiag), reference %v",
						n, rhs, i, got[i], viaTridiag[i], want[i])
				}
			}
		}
	}
}
