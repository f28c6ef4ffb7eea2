package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agcm/internal/machine"
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
	if o.Name() != "roofline:Host CPU" {
		t.Fatalf("oracle %q", o.Name())
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
