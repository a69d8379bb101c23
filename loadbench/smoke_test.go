package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke run checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly on a small stream, end to end
// against a freshly built higgsd and traced in-process, and checks that
// each run is correct and emits every metric BENCHMARK.json names, with
// its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "higgsd")
	if out, err := exec.Command("go", "build", "-o", bin, "higgs/cmd/higgsd").CombinedOutput(); err != nil {
		t.Fatalf("build higgsd: %v\n%s", err, out)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			c := config{
				workload: wl.Name, seed: 3, seconds: 4, trace: trace,
				higgsd: bin, work: filepath.Join(dir, "work"), spans: filepath.Join(dir, "spans"),
				scale: 0.05, setups: 2,
			}
			rep, err := run(c)
			stopAll()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct %v, attempted %d, failed %d\n%v",
					wl.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.notes)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, trace, len(rep.Metrics), len(want))
			}
		}
	}
}
