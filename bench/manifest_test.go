package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestValid holds BENCHMARK.json to the limits that refuse a
// benchmark before a single run, and to the tables the run emits from.
func TestManifestValid(t *testing.T) {
	m := loadManifest(t)
	for _, problem := range m.validate() {
		t.Error(problem)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the run defaults to %d", m.RunSeconds, defaultSeconds)
	}
	var want []workloadDef
	for _, w := range workloadList() {
		want = append(want, workloadDef{w.name, w.why})
	}
	if !reflect.DeepEqual(m.Workloads, want) {
		t.Errorf("workloads differ from workloadList():\n got %v\nwant %v", m.Workloads, want)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table")
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
}

// TestValidateRejects feeds validate the defects that got an earlier
// manifest refused.
func TestValidateRejects(t *testing.T) {
	for name, breakIt := range map[string]func(*manifest){
		"name with a space":        func(m *manifest) { m.PerLayer[0].Name = "client samples" },
		"name with a slash":        func(m *manifest) { m.Workloads[0].Name = "oneshot/local" },
		"duplicate name":           func(m *manifest) { m.PerLayer[1].Name = m.PerLayer[0].Name },
		"nine workloads":           func(m *manifest) { m.Workloads = append(m.Workloads, make([]workloadDef, 9-len(m.Workloads))...) },
		"seventeen end-to-end":     func(m *manifest) { m.EndToEnd = append(m.EndToEnd, make([]metricDef, 17-len(m.EndToEnd))...) },
		"129 per-layer":            func(m *manifest) { m.PerLayer = append(m.PerLayer, make([]metricDef, 129-len(m.PerLayer))...) },
		"no setup_s":               func(m *manifest) { m.EndToEnd = m.EndToEnd[:len(m.EndToEnd)-1] },
		"metric without unit":      func(m *manifest) { m.EndToEnd[0].Unit = "" },
		"metric without better":    func(m *manifest) { m.PerLayer[0].Better = "" },
		"end-to-end without bound": func(m *manifest) { m.EndToEnd[0].Bound = nil },
		"bound over a quarter":     func(m *manifest) { m.EndToEnd[0].Bound = bound(0.3) },
		"bounded per-layer":        func(m *manifest) { m.PerLayer[0].Bound = bound(0.1) },
		"path outside bench":       func(m *manifest) { m.Paths = []string{"bench", "cmd"} },
		"sixty-one seconds":        func(m *manifest) { m.RunSeconds = 61 },
	} {
		m := loadManifest(t)
		breakIt(m)
		if len(m.validate()) == 0 {
			t.Errorf("%s: validate accepted it", name)
		}
	}
}

// TestSmokeNames runs every workload for 2 s in each metric mode and checks
// that the names the result line carries are exactly the ones the manifest
// declares. It builds and runs the real binary, so -short skips it.
func TestSmokeNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark binary")
	}
	m := loadManifest(t)
	bin := filepath.Join(t.TempDir(), "cinnamon-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range m.Workloads {
		for mode, defs := range map[string][]metricDef{"0": m.EndToEnd, "1": m.PerLayer} {
			cmd := exec.Command(bin, "--workload", w.Name, "--seed", "3", "--trace", mode, "-smoke", "-out", t.TempDir())
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s -trace %s: %v\n%s%s", w.Name, mode, err, stdout, stderr.Bytes())
			}
			var last string
			for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
				last = sc.Text()
			}
			var res result
			dec := json.NewDecoder(strings.NewReader(last))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s -trace %s: last line is no result: %v\n%s", w.Name, mode, err, last)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", w.Name, mode, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name, v := range res.Metrics {
				got = append(got, name)
				for _, d := range defs {
					if d.Name == name && d.Unit != v.Unit {
						t.Errorf("%s: %s printed in %q, declared in %q", w.Name, name, v.Unit, d.Unit)
					}
				}
			}
			sort.Strings(got)
			if want := names(defs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s -trace %s: printed names differ from the manifest's:\n got %v\nwant %v", w.Name, mode, got, want)
			}
		}
	}
}
