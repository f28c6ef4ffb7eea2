package workload

// SchedulingSpec is the committed reference workload behind the scheduling
// experiment and CI's live record/replay drill (workloads/scheduling.json is
// its canonical encoding; a test pins the two together).  The shape is chosen
// to make scheduler differences visible and stable:
//
//   - The interactive class is a small 1x1 grid, the batch class a 4-rank
//     grid with triple the steps: the Paragon roofline (the machine the
//     templates name, and the oracle the experiment prices with) puts them
//     at 3.46 s and 19.55 s, so sjf has real spread to exploit.
//   - The mean rate sits near the 4-worker pool's capacity (0.40/s x 8.29 s
//     mean service / 4 workers = 0.83 utilisation) and the diurnal swing
//     (amplitude 0.7) pushes peaks well past it: queues build at the crest
//     and drain in the trough, which is exactly where scheduling policy
//     matters.
//   - Zipf popularity (exponent ~1.2 over small pools) gives live replays a
//     realistic cache-hit mix without affecting the queueing model.
//
// SchedulingSpecInverted is the label-inverted variant of SchedulingSpec:
// the per-class work (template, steps) is swapped so the expensive grid
// carries the interactive label, and the arrival rate is lowered to keep
// the offered load near the reference workload's.  Priority scheduling
// still favors the label; sjf follows predicted cost — on this variant the
// two must disagree, which is what distinguishes a cost oracle from a
// class rank.
func SchedulingSpecInverted() Spec {
	inv := SchedulingSpec()
	inv.Name += "-label-inverted"
	inv.Classes = append([]Class(nil), inv.Classes...)
	inv.Classes[0].Template, inv.Classes[1].Template =
		inv.Classes[1].Template, inv.Classes[0].Template
	inv.Classes[0].Steps, inv.Classes[1].Steps =
		inv.Classes[1].Steps, inv.Classes[0].Steps
	inv.Arrival.RatePerSec = 0.23
	return inv
}

func SchedulingSpec() Spec {
	return Spec{
		Name:     "scheduling",
		Seed:     42,
		Requests: 400,
		Arrival: Arrival{
			Process:          "poisson",
			RatePerSec:       0.40,
			DiurnalAmplitude: 0.7,
			DiurnalPeriodSec: 120,
		},
		Classes: []Class{
			{
				Name:   "interactive",
				Weight: 0.7,
				Steps:  1,
				Pool:   Pool{Distinct: 24, Zipf: 1.2},
				Template: Template{
					Nlon: 36, Nlat: 24, Nlayers: 3,
					Machine: "paragon", MeshPy: 1, MeshPx: 1, Filter: "fft",
				},
			},
			{
				Name:   "batch",
				Weight: 0.3,
				Steps:  3,
				Pool:   Pool{Distinct: 12, Zipf: 1.15},
				Template: Template{
					Nlon: 72, Nlat: 46, Nlayers: 9,
					Machine: "paragon", MeshPy: 2, MeshPx: 2, Filter: "fft",
				},
			},
		},
	}
}
