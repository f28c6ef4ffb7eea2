package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// fast settings for tests; the command-line harness uses more steps.
var testOpt = Options{MeasuredSteps: 1}

// cell parses a numeric table cell (possibly with a trailing % or x).
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparsable cell %q: %v", s, err)
	}
	return v
}

func TestOptionsDefaults(t *testing.T) {
	if DefaultOptions().steps() < 1 {
		t.Fatal("default steps invalid")
	}
	if (Options{}).steps() != 3 {
		t.Fatal("zero options not defaulted")
	}
}

func TestIDsRoundTrip(t *testing.T) {
	if _, err := ByID("no-such", testOpt); err == nil {
		t.Fatal("unknown id accepted")
	}
	// Cheap experiments run through ByID end to end.
	for _, id := range []string{"blockarray", "advection"} {
		out, err := ByID(id, testOpt)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if out.ID != id || len(out.Tables) == 0 {
			t.Fatalf("%s: bad output %+v", id, out)
		}
	}
}

// TestTableDrivesAllByIDAndIDs swaps every experiment for a counting stub:
// IDs is the table's order, ByID resolves every id to its own entry, and All
// runs each entry exactly once, in that order.
func TestTableDrivesAllByIDAndIDs(t *testing.T) {
	saved := append(table[:0:0], table...)
	defer copy(table, saved)
	runs := make(map[string]int)
	for i := range table {
		id := table[i].id
		table[i].fn = func(Options) (*Output, error) {
			runs[id]++
			return &Output{ID: id}, nil
		}
	}

	ids := IDs()
	if len(ids) != len(table) {
		t.Fatalf("%d ids for %d experiments", len(ids), len(table))
	}
	for i, id := range ids {
		if id != table[i].id {
			t.Fatalf("IDs()[%d] = %q, table says %q", i, id, table[i].id)
		}
		out, err := ByID(id, testOpt)
		if err != nil || out.ID != id {
			t.Fatalf("ByID(%q) = %+v, %v", id, out, err)
		}
		if runs[id] != 1 {
			t.Fatalf("id %q is not unique in the table", id)
		}
	}
	outs, err := All(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(ids) {
		t.Fatalf("All ran %d experiments, want %d", len(outs), len(ids))
	}
	for i, out := range outs {
		if out.ID != ids[i] || runs[out.ID] != 2 {
			t.Fatalf("All()[%d] = %q after %d runs, want %q run once more", i, out.ID, runs[out.ID], ids[i])
		}
	}
}

func TestBlockArrayShape(t *testing.T) {
	out, err := BlockArray(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Tables[0].Rows
	var paragon, t3d float64
	for _, r := range rows {
		switch r[0] {
		case "Intel Paragon":
			paragon = cell(t, r[5])
		case "Cray T3D":
			t3d = cell(t, r[5])
		}
	}
	if paragon < 4 || paragon > 6.5 {
		t.Errorf("Paragon block speedup %.1f outside band (paper 5.0)", paragon)
	}
	if t3d < 2 || t3d > 3.6 {
		t.Errorf("T3D block speedup %.1f outside band (paper 2.6)", t3d)
	}
}

func TestAdvectionShape(t *testing.T) {
	out, err := Advection(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Tables[0].Rows {
		if r[0] == "Cray T3D" {
			red := cell(t, r[3])
			if red < 20 || red > 45 {
				t.Errorf("T3D advection reduction %.1f%% outside band (paper 35%%)", red)
			}
		}
	}
}

func TestTable1ImbalanceConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution run")
	}
	out, err := Table1(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Tables[0].Rows
	if len(rows) < 2 {
		t.Fatalf("only %d balancing states", len(rows))
	}
	before := cell(t, rows[0][3])
	after := cell(t, rows[len(rows)-1][3])
	// Paper band: initial 35-48%, final single digits.
	if before < 15 {
		t.Errorf("initial physics imbalance %.1f%% too small (paper 37%%)", before)
	}
	if after > 15 {
		t.Errorf("final physics imbalance %.1f%% too large (paper 6%%)", after)
	}
	if after >= before {
		t.Errorf("balancing did not reduce imbalance: %.1f%% -> %.1f%%", before, after)
	}
	// Max load must decrease monotonically across iterations.
	prev := cell(t, rows[0][1])
	for _, r := range rows[1:] {
		cur := cell(t, r[1])
		if cur > prev {
			t.Errorf("max load increased: %g -> %g", prev, cur)
		}
		prev = cur
	}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution run")
	}
	out, err := Figure1(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("Figure 1 rows = %d", len(rows))
	}
	// Paper: both the Dynamics share and the filter share grow with the
	// node count (72->86% and 36->49%).
	dyn16, dyn240 := cell(t, rows[0][3]), cell(t, rows[1][3])
	flt16, flt240 := cell(t, rows[0][4]), cell(t, rows[1][4])
	if dyn240 <= dyn16 {
		t.Errorf("Dynamics share did not grow: %.0f%% -> %.0f%%", dyn16, dyn240)
	}
	if flt240 <= flt16 {
		t.Errorf("filter share did not grow: %.0f%% -> %.0f%%", flt16, flt240)
	}
	if dyn16 < 50 || dyn16 > 90 {
		t.Errorf("16-node Dynamics share %.0f%% outside plausible band (paper 72%%)", dyn16)
	}
}

func TestTable8Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution run")
	}
	out, err := Table8(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("Table 8 rows = %d", len(rows))
	}
	var prevConv float64
	for i, r := range rows {
		conv := cell(t, r[1])
		fft := cell(t, r[2])
		lb := cell(t, r[3])
		// The paper's column ordering at every mesh.
		if !(lb < fft && fft < conv) {
			t.Errorf("row %s: ordering violated: conv=%g fft=%g lb=%g", r[0], conv, fft, lb)
		}
		// Costs fall as the mesh grows (rows are ordered by node count).
		if i > 0 && conv > prevConv*1.05 {
			t.Errorf("row %s: convolution cost grew with more nodes", r[0])
		}
		prevConv = conv
	}
	// The headline: FFT+LB several times faster than convolution on 240.
	last := rows[len(rows)-1]
	if ratio := cell(t, last[1]) / cell(t, last[3]); ratio < 3 {
		t.Errorf("conv/LB ratio on 8x30 = %.1f, want >= 3 (paper ~4.9)", ratio)
	}
}

func TestTables45NewFilterWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution runs")
	}
	t4, err := Table4(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := Table5(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	oldRows, newRows := t4.Tables[0].Rows, t5.Tables[0].Rows
	// On the largest mesh the new code is about twice as fast overall
	// (paper: 216 vs 119 s/day).
	oldTot := cell(t, oldRows[len(oldRows)-1][3])
	newTot := cell(t, newRows[len(newRows)-1][3])
	if ratio := oldTot / newTot; ratio < 1.4 {
		t.Errorf("whole-code speedup from new filter on 8x30 = %.2f, want >= 1.4 (paper ~1.8)", ratio)
	}
	// Dynamics speed-up scaling improves with the new filter.
	oldSpeedup := cell(t, oldRows[len(oldRows)-1][2])
	newSpeedup := cell(t, newRows[len(newRows)-1][2])
	if newSpeedup <= oldSpeedup {
		t.Errorf("new filter scaling %.1f not above old %.1f", newSpeedup, oldSpeedup)
	}
}

func TestAblationCommPatternsStory(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution runs")
	}
	out, err := AblationCommPatterns(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][3]float64{} // messages, MB, wait share
	for _, r := range out.Tables[0].Rows {
		vals[r[0]] = [3]float64{cell(t, r[1]), cell(t, r[2]), cell(t, r[3])}
	}
	// The ring convolution moves far more messages than the tree.
	if vals["convolution-ring"][0] < 2*vals["convolution-tree"][0] {
		t.Errorf("ring (%v msgs) not clearly above tree (%v msgs)",
			vals["convolution-ring"][0], vals["convolution-tree"][0])
	}
	// The FFT transpose moves far less volume than the convolution
	// gathers (it never replicates whole rows).
	if vals["fft"][1] > 0.5*vals["convolution-ring"][1] {
		t.Errorf("fft volume %v MB not well below convolution %v MB",
			vals["fft"][1], vals["convolution-ring"][1])
	}
	// Load balancing reduces the worst rank's wait share.
	if vals["fft-load-balanced"][2] >= vals["fft"][2] {
		t.Errorf("load balancing did not reduce wait share: %v%% vs %v%%",
			vals["fft-load-balanced"][2], vals["fft"][2])
	}
}

func TestAblationPolarTreatmentStory(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution runs")
	}
	out, err := AblationPolarTreatment(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Tables[0].Rows
	last := rows[len(rows)-1] // 8x30
	fftLB := cell(t, last[1])
	diff := cell(t, last[2])
	if diff <= fftLB {
		t.Errorf("on 240 nodes the implicit diffusion (%g) should lose to the balanced filter (%g)",
			diff, fftLB)
	}
}

func TestAblationSchemesStory(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution runs")
	}
	out, err := AblationPhysicsSchemes(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][2]float64{}
	for _, r := range out.Tables[0].Rows {
		vals[r[0]] = [2]float64{cell(t, r[1]), cell(t, r[2])}
	}
	// Every balancing scheme reduces the physics imbalance versus none.
	for _, s := range []string{"shuffle", "greedy", "pairwise"} {
		if vals[s][1] >= vals["none"][1] {
			t.Errorf("%s did not reduce imbalance: %.1f%% vs %.1f%%", s, vals[s][1], vals["none"][1])
		}
	}
	// Scheme 3 beats the unbalanced physics time; scheme 1 pays heavy
	// data-movement costs (the paper's drawback argument).
	if vals["pairwise"][0] >= vals["none"][0] {
		t.Errorf("pairwise physics time %.1f not below unbalanced %.1f",
			vals["pairwise"][0], vals["none"][0])
	}
	if vals["shuffle"][0] <= vals["pairwise"][0] {
		t.Errorf("shuffle (%.1f) should cost more than pairwise (%.1f): O(P^2) movement",
			vals["shuffle"][0], vals["pairwise"][0])
	}
}

func TestCrashRecoveryStory(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution runs")
	}
	out, err := CrashRecovery(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("crash-recovery rows = %d, want 3 legs", len(rows))
	}
	if got := rows[2][3]; got != "bit-identical to reference" {
		t.Fatalf("restarted leg outcome = %q", got)
	}
	if !strings.Contains(rows[1][3], "crashed at virtual time") {
		t.Fatalf("crashed leg outcome %q does not report the injected crash", rows[1][3])
	}
}
