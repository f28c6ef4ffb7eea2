// Quickstart: run the parallel UCLA AGCM on a simulated 4x4 Cray T3D,
// compare the original convolution filter with the paper's load-balanced
// FFT filter, and save a history snapshot.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/history"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

func main() {
	// The paper's standard configuration: 2 x 2.5 degree grid, 9 layers.
	base := core.Config{
		Spec:    grid.TwoByTwoPointFive(9),
		Machine: machine.CrayT3D(),
		MeshPy:  4, MeshPx: 4,
		PhysicsScheme: physics.None,
	}

	fmt.Println("UCLA parallel AGCM on a simulated 4x4 Cray T3D")
	fmt.Printf("grid %dx%dx%d, %d time steps per simulated day\n\n",
		base.Spec.Nlon, base.Spec.Nlat, base.Spec.Nlayers, base.StepsPerDay())

	for _, fv := range []core.FilterVariant{core.FilterConvolutionRing, core.FilterFFTBalanced} {
		cfg := base
		cfg.Filter = fv
		rep, err := core.Run(cfg, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("filter=%-18s  Dynamics %7.1f s/day   filtering %6.1f s/day   total %7.1f s/day\n",
			fv, rep.Dynamics, rep.FilterTime, rep.Total)
	}

	// Save a history snapshot: one CRC-protected frame, the only encoding
	// history.Read loads.
	snap, err := core.Snapshot(base, 4)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.CreateTemp("", "agcm-history-*.bin")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	if err := history.WriteFrame(f, snap); err != nil {
		log.Fatal(err)
	}
	info, _ := f.Stat()
	fmt.Printf("\nwrote history snapshot: %d variables, %d bytes (%s)\n",
		len(snap.Names), info.Size(), f.Name())
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
