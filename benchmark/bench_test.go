package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesHarness pins BENCHMARK.json to the tables the harness
// reports from: same workloads, same metrics, same units and bounds.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	for i, b := range workloads {
		if w := m.Workloads[i]; w.Name != b.name || w.Why != b.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, b.name, b.why)
		}
	}
	compare := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness has %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			got := declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got, d)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != d.bound):
				t.Errorf("%s %s: bound differs from the harness's %v", kind, d.name, d.bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at tiny size, untraced and traced, and checks
// what the driver relies on: every declared metric printed once with its
// unit and a finite value, every op passing its oracle, a result line with
// exactly the contract's keys, and a trace whose spans nest.
func TestSmoke(t *testing.T) {
	seconds := 0.3
	if testing.Short() {
		seconds = 0.05
	}
	for _, b := range workloads {
		for _, traced := range []bool{false, true} {
			name, defs := b.name+"/untraced", endToEnd
			if traced {
				name, defs = b.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				var buf bytes.Buffer
				cfg := runConfig{workload: b.name, seed: 1, seconds: seconds, traced: traced, tiny: true, outDir: out}
				if err := runOne(cfg, &buf); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if len(raw) != 4 {
					t.Errorf("result line has %d keys, want correct, attempted, failed, metrics", len(raw))
				}
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, buf.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("result line has %d metrics, %d are declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					printed := 0
					for _, line := range lines {
						if strings.HasPrefix(line, d.name+" "+d.unit+" ") {
							printed++
						}
					}
					v, ok := res.Metrics[d.name]
					if printed != 1 || !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: printed %d times, in result %v as %+v", d.name, printed, ok, v)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("%s = %v, end-to-end metrics are never 0", d.name, v.Value)
					}
				}
				left, err := os.ReadDir(out)
				if err != nil {
					t.Fatal(err)
				}
				if !traced {
					if len(left) != 0 {
						t.Errorf("untraced run left %d entries behind, first %s", len(left), left[0].Name())
					}
					return
				}
				if len(left) != 1 {
					t.Errorf("traced run left %d entries, want only the trace file", len(left))
				}
				checkTrace(t, filepath.Join(out, b.name+".trace.json"))
			})
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	byID := map[int]*span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d (%s) names parent %d, which is not in the file", s.ID, s.Name, s.Parent)
		case s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Op != p.Op:
			t.Errorf("span %d (%s, op %d, %d..%d) is not inside its parent %d (%s, op %d, %d..%d)",
				s.ID, s.Name, s.Op, s.StartNs, s.EndNs, p.ID, p.Name, p.Op, p.StartNs, p.EndNs)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []*span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "stmt", StartNs: 10, EndNs: 90},
		{ID: 3, Parent: 2, Name: "parse", StartNs: 10, EndNs: 30},
		{ID: 4, Parent: 2, Name: "execute", StartNs: 25, EndNs: 80}, // overlaps parse by 5
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 20, "stmt": 10, "parse": 20, "execute": 55}
	for name, ns := range want {
		if got[name].selfNs != ns || got[name].count != 1 {
			t.Errorf("%s: self time %d (count %d), want %d", name, got[name].selfNs, got[name].count, ns)
		}
	}
}

func TestOraclesAgainstKnownAnswers(t *testing.T) {
	data := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	if err := closeTo(gramRef(data), []float64{35, 44, 44, 56}, 0); err != nil {
		t.Errorf("gramRef: %v", err)
	}
	x, err := solveRef([]float64{0, 2, 1, 1}, []float64{4, 3})
	if err != nil || closeTo(x, []float64{1, 2}, 1e-15) != nil {
		t.Errorf("solveRef = %v, %v; want [1 2]", x, err)
	}
	if _, err := solveRef([]float64{1, 2, 2, 4}, []float64{1, 1}); err == nil {
		t.Error("solveRef accepted a singular system")
	}
	// With the identity metric the task is arg max over i of min over j≠i of xi·xj.
	id, dist := argMaxMinRef([][]float64{{1, 0}, {0, 1}, {2, 2}}, []float64{1, 0, 0, 1})
	if id != 2 || dist != 2 {
		t.Errorf("argMaxMinRef = (%d, %v), want (2, 2)", id, dist)
	}
	if closeTo([]float64{1, 2.1}, []float64{1, 2}, 1e-3) == nil {
		t.Error("closeTo accepted a 5 % error at tolerance 1e-3")
	}
}
