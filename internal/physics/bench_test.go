package physics

import (
	"testing"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// BenchmarkStepOneRank times the unbalanced physics step of the paper's
// 144x90x9 grid on one rank: 12 960 columns per op.
func BenchmarkStepOneRank(b *testing.B) {
	spec := grid.TwoByTwoPointFive(9)
	d, err := grid.NewDecomp(spec, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	_, err = sim.New(1, machine.Paragon()).Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, 1, 1)
		l := grid.NewLocal(d, 0, 0)
		T, Q := testFields(spec, l)
		r := NewRunner(world, cart, l, NewModel(spec, stepsPerDay), None, 1)
		r.Step(T, Q, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			r.Step(T, Q, n+1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(spec.Nlat*spec.Nlon), "ns/column")
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkComputeOne times Model.Compute, the block kernel on a block of
// one, over the same grid's columns.
func BenchmarkComputeOne(b *testing.B) {
	spec := grid.TwoByTwoPointFive(9)
	m := NewModel(spec, stepsPerDay)
	cols := make([]*Column, 0, spec.Nlat*spec.Nlon)
	for j := 0; j < spec.Nlat; j++ {
		for i := 0; i < spec.Nlon; i++ {
			cols = append(cols, testColumn(spec, j, i))
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.Compute(cols[n%len(cols)], n/len(cols))
	}
}
