package workload

// Legacy mix: the seeded dup/Zipf request sequence agcmload has always
// fired, moved here verbatim so the load generator's classic mode and the
// workload engine share one home.  The draw order and formatting are
// pinned only by the seeds of the CI smoke mixes (the serve, cluster and
// roofline jobs), which expect byte-identical sequences per seed; no
// committed report depends on them.

import (
	"fmt"
	"math/rand"
	"strconv"
)

// PoolBody builds the i-th distinct request body of the legacy mix.  The
// pool cycles meshes and filters and then varies init_wind, so it is
// unbounded and every index maps to a distinct config (hence a distinct
// job key).
func PoolBody(i, steps int) string {
	meshes := [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	filters := []string{
		"fft", "fft-load-balanced", "convolution-ring",
		"convolution-tree", "polar-implicit-diffusion", "none",
	}
	mesh := meshes[i%len(meshes)]
	filter := filters[(i/len(meshes))%len(filters)]
	wind := 20.0 + float64(i/(len(meshes)*len(filters)))
	return fmt.Sprintf(`{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon",`+
		`"mesh_py":%d,"mesh_px":%d,"filter":%q,"init_wind":%s},"steps":%d}`,
		mesh[0], mesh[1], filter, strconv.FormatFloat(wind, 'g', -1, 64), steps)
}

// Sequence fixes the legacy request mix up front: with probability dup a
// request repeats an already-issued config, otherwise it draws the next
// fresh one.  With zipf > 1 repeats are Zipf-skewed toward the earliest
// configs (a hot-key distribution, the regime key-affinity routing is
// built for); with zipf = 0 repeats are uniform.  Seeded, so the same
// arguments reproduce the same mix.
func Sequence(n int, dup, zipf float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, n)
	fresh := 0
	for i := range seq {
		if fresh > 0 && rng.Float64() < dup {
			if zipf > 1 && fresh > 1 {
				z := rand.NewZipf(rng, zipf, 1, uint64(fresh-1))
				seq[i] = int(z.Uint64())
			} else {
				seq[i] = rng.Intn(fresh)
			}
		} else {
			seq[i] = fresh
			fresh++
		}
	}
	rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}
