package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenReport is a fully-populated report with fixed values, covering
// every field of the schema including phase durations, counts and
// latency percentiles.
func goldenReport() Report {
	return Report{
		SchemaVersion: SchemaVersion,
		Suite:         "smoke",
		GitSHA:        "0123456789abcdef0123456789abcdef01234567",
		GoVersion:     "go1.24.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		NumCPU:        8,
		CreatedAt:     "2026-07-29T00:00:00Z",
		Results: []ScenarioResult{
			{
				Scenario:    "pipeline/xgb/n=100/density=base",
				Params:      map[string]string{"classifier": "xgb", "density": "base", "detector": "labelprop", "users": "100"},
				Reps:        3,
				OpsPerRep:   1,
				NsPerOp:     123456789,
				AllocsPerOp: 1024,
				BytesPerOp:  65536,
				RepNs:       []float64{123456789, 130000000, 128000000},
				PhaseNs: map[string]float64{
					"training":    10000000,
					"division":    80000000,
					"aggregation": 20000000,
					"combination": 13456789,
				},
				Counts: map[string]float64{"epochs": 9},
			},
			{
				Scenario:  "serve/edge-lookup/n=100",
				Params:    map[string]string{"requests": "400", "users": "100"},
				Reps:      3,
				OpsPerRep: 400,
				NsPerOp:   25000,
				RepNs:     []float64{10000000, 10500000, 11000000},
				Latency: &LatencyDoc{
					Count:  1200,
					MeanNs: 25000,
					P50Ns:  21000,
					P95Ns:  48000,
					P99Ns:  95000,
					MaxNs:  180000,
				},
			},
		},
	}
}

// TestReportGolden pins the BENCH_*.json schema: any change to the JSON
// layout shows up as a golden-file diff and forces a deliberate
// SchemaVersion decision. Regenerate with `go test ./internal/bench
// -run TestReportGolden -update`.
func TestReportGolden(t *testing.T) {
	got, err := goldenReport().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON drifted from golden file (run with -update after bumping SchemaVersion if intentional)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReportRoundTrip checks Write/ReadReport are inverses.
func TestReportRoundTrip(t *testing.T) {
	r := goldenReport()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Errorf("round trip mismatch:\nwrote %+v\nread  %+v", r, back)
	}
}

func TestReadReportRejectsBadInput(t *testing.T) {
	dir := t.TempDir()

	missing := filepath.Join(dir, "nope.json")
	if _, err := ReadReport(missing); err == nil {
		t.Error("missing file accepted")
	}

	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(garbage); err == nil {
		t.Error("garbage accepted")
	}

	wrongVersion := filepath.Join(dir, "wrong.json")
	b, err := json.Marshal(Report{SchemaVersion: SchemaVersion + 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wrongVersion, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(wrongVersion); err == nil {
		t.Error("mismatched schema_version accepted")
	}
}

func TestNewReportFingerprint(t *testing.T) {
	r := NewReport("smoke", nil)
	if r.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d", r.SchemaVersion)
	}
	if r.Suite != "smoke" || r.GoVersion == "" || r.GOOS == "" || r.NumCPU <= 0 || r.CreatedAt == "" {
		t.Errorf("fingerprint incomplete: %+v", r)
	}
	if r.GitSHA == "" {
		t.Error("git_sha empty — want a SHA or \"unknown\"")
	}
}
