package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleRunFile() *RunFile {
	return &RunFile{
		Version: runFileVersion,
		Host:    Host{GOMAXPROCS: 2, NProc: 2, GoVersion: "go1.24.0", GitRev: "abc", CPUModel: "cpu", Degraded: false},
		Passes: []Pass{{
			Seed: 7,
			Workloads: []*Report{{
				Workload: "engine", Seed: 7, Correct: true, Attempted: 108,
				Metrics: map[string]Metric{
					"latency_ms_p50": {Value: 237.25, Unit: "ms", Samples: 108},
					"setup_s":        {Value: 0.229, Unit: "s", Samples: 5},
				},
				Tail:   &Tail{Percentile: 90, ValueMS: 330.5, Samples: 108, Beyond: 10},
				Digest: "d1",
			}},
		}},
	}
}

func TestRunFileRoundTrip(t *testing.T) {
	want := sampleRunFile()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeJSONFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the run file:\n got %+v\nwant %+v", got, want)
	}
}

// The result line carries exactly correct, attempted, failed and
// metrics, and each metric exactly a value and a unit.
func TestResultLineShape(t *testing.T) {
	raw, err := json.Marshal(sampleRunFile().Passes[0].Workloads[0].line())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	if len(keys) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("result line keys = %v", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s = %v, want exactly value and unit", name, m)
		}
	}
	if strings.Contains(string(raw), "\n") {
		t.Error("result line spans several lines")
	}
}
