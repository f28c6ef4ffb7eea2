package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/roofline"
)

// TestLoadOracle drives -calib: no file is the server's built-in host model,
// a model's canonical JSON prices with that model, and a file in the retired
// calibration layout fails by naming the field it no longer knows.
func TestLoadOracle(t *testing.T) {
	if o, err := loadOracle(""); o != nil || err != nil {
		t.Fatalf("empty path: oracle %v, err %v; want nil, nil", o, err)
	}
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	fitted := machine.Host()
	fitted.FlopRate *= 1.5
	raw, err := fitted.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	o, err := loadOracle(write("host.json", string(raw)+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	// The file's model prices every job, bit for bit as a predictor built
	// on it directly does, and not as the built-in host model does.
	want, err := roofline.NewMachine(fitted)
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := roofline.NewMachine(machine.Host())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Spec: grid.TwoByTwoPointFive(9), Machine: machine.Host(), MeshPy: 2, MeshPx: 4, Filter: core.FilterFFTBalanced, DegradeRank: -1}
	got, err := o.PredictSeconds(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := want.PredictSeconds(cfg, 3); math.Float64bits(got) != math.Float64bits(w) {
		t.Fatalf("loaded oracle priced %v, the file's model %v", got, w)
	}
	if b, _ := builtin.PredictSeconds(cfg, 3); got == b {
		t.Fatalf("loaded oracle priced %v, the same as the built-in host model", got)
	}

	retired := `{"name":"host","aggregate":"sum","flops_per_sec":3e9,"bytes_per_sec":1.9e10,` +
		`"net_bytes_per_sec":9.5e9,"net_latency_s":0,"msg_overhead_s":1e-6,` +
		`"efficiency":{"dynamics":2.16,"physics":13.25,"filter_conv":1.81,"filter_fft":0.775,"network":0.11}}`
	if _, err := loadOracle(write("retired.json", retired)); err == nil || !strings.Contains(err.Error(), "msg_overhead_s") {
		t.Fatalf("retired layout: err = %v, want it to name msg_overhead_s", err)
	}
	if _, err := loadOracle(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("a missing file loaded")
	}
}
