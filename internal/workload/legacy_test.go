package workload

import "testing"

// The legacy mix moved here from cmd/agcmload; the CI smoke mixes are seeded
// against it — nothing else is — so its bytes and draw order are pinned.

func TestPoolBodyGolden(t *testing.T) {
	cases := []struct {
		i, steps int
		want     string
	}{
		{0, 1, `{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon","mesh_py":1,"mesh_px":1,"filter":"fft","init_wind":20},"steps":1}`},
		{5, 2, `{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon","mesh_py":1,"mesh_px":2,"filter":"fft-load-balanced","init_wind":20},"steps":2}`},
		{24, 1, `{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon","mesh_py":1,"mesh_px":1,"filter":"fft","init_wind":21},"steps":1}`},
	}
	for _, tc := range cases {
		if got := PoolBody(tc.i, tc.steps); got != tc.want {
			t.Fatalf("PoolBody(%d,%d) =\n%s\nwant\n%s", tc.i, tc.steps, got, tc.want)
		}
	}
}

func TestSequenceGolden(t *testing.T) {
	seq := Sequence(12, 0.5, 0, 1)
	// Pin the exact draw: the sequence feeds seeded CI mixes, so any change
	// to the rng consumption order is a breaking change.
	want := []int{6, 4, 0, 0, 1, 3, 2, 5, 1, 0, 4, 3}
	if len(seq) != len(want) {
		t.Fatalf("sequence length %d", len(seq))
	}
	for i := range seq {
		if seq[i] != want[i] {
			t.Fatalf("Sequence(12, 0.5, 0, 1) = %v, want %v", seq, want)
		}
	}
	// Fresh indices are dense 0..max.
	seen := make(map[int]bool)
	max := 0
	for _, v := range seq {
		seen[v] = true
		if v > max {
			max = v
		}
	}
	for i := 0; i <= max; i++ {
		if !seen[i] {
			t.Fatalf("index %d skipped: %v", i, seq)
		}
	}
}

func TestSequenceZipfSkew(t *testing.T) {
	seq := Sequence(4000, 0.8, 1.3, 7)
	counts := make(map[int]int)
	for _, v := range seq {
		counts[v]++
	}
	if counts[0] <= counts[5] {
		t.Fatalf("zipf reuse not skewed toward index 0: %v", counts)
	}
}
