package roofline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"agcm/internal/machine"
)

// pricesPinned is the SHA-256 of every price the package produces over the
// retired sweep plus two fits; a change to it is a change to what sjf, the
// `roofline` experiment or `agcmbench -calibrate` compute.
const pricesPinned = "b39ebb45a84f6bd5b4286d2b839ea27b3cd820d44203ef6e0b89c2c8d3916745"

// TestRooflinePricesPinned hashes the bits of PredictSeconds and of the
// RawSeconds row for every retiredSweep config on every paper machine, the
// host (both aggregates, the host's fitted efficiencies) and validCalib,
// then the Fit of synthSamples over every class and over the compute
// classes.
func TestRooflinePricesPinned(t *testing.T) {
	h := sha256.New()
	put := func(x float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	// validCalib is a max-rank model with non-unit efficiencies, where the
	// efficiency and the degrade factor both act on one price.
	for _, m := range append(machine.All(), machine.Host(), validCalib()) {
		oracle, err := NewMachine(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range retiredSweep(m) {
			s, err := oracle.PredictSeconds(cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			put(s)
			raw, err := RawSeconds(m, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range raw {
				put(r)
			}
		}
	}
	trueEff := machine.Efficiencies{Dynamics: 0.5, Physics: 0.04, FilterConv: 0.75, FilterFFT: 0.09, Network: 0.6}
	samples := synthSamples(trueEff, 20)
	for _, classes := range [][]Class{nil, ComputeClasses} {
		e, err := Fit(samples, classes)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []float64{e.Dynamics, e.Physics, e.FilterConv, e.FilterFFT, e.Network} {
			put(x)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pricesPinned {
		t.Fatalf("roofline prices hash %s, want %s", got, pricesPinned)
	}
}
