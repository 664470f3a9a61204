package artifact_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/wechat"
)

// TestLoadFileRefusesDevZero: a device node is refused on its Stat, before
// the endless read the sized buffer would otherwise start.
func TestLoadFileRefusesDevZero(t *testing.T) {
	if _, err := os.Stat("/dev/zero"); err != nil {
		t.Skip("no /dev/zero on this platform")
	}
	_, err := artifact.LoadFile("/dev/zero")
	if err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Fatalf("LoadFile(/dev/zero) = %v, want a not-a-regular-file error", err)
	}
}

// TestLoadFileRefusesFIFO: a named pipe is refused the same way. The test
// holds the pipe open read-write itself, so LoadFile's open does not wait
// for a writer.
func TestLoadFileRefusesFIFO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pipe.locec")
	if err := exec.Command("mkfifo", path).Run(); err != nil {
		t.Skipf("mkfifo unavailable: %v", err)
	}
	w, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	_, err = artifact.LoadFile(path)
	if err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Fatalf("LoadFile(fifo) = %v, want a not-a-regular-file error", err)
	}
}

// TestSaveAllocatesLittle: Save streams its sections through one small
// buffer, so on the n = 2 000 labelprop+XGB artifact it allocates under
// 5 % of the bytes it writes (encoding each section into memory first
// allocated several times the output).
func TestSaveAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an n = 2 000 pipeline")
	}
	net, err := wechat.Generate(wechat.DefaultConfig(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 8)
	res, err := core.NewPipeline(core.Config{
		Division:   core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1},
		Classifier: &core.XGBClassifier{Seed: 1},
		Seed:       1,
	}).Run(net.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := res.Export()
	if err != nil {
		t.Fatal(err)
	}
	art, err := artifact.New(net.Dataset.G, ex, 7)
	if err != nil {
		t.Fatal(err)
	}
	var out countingWriter
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := art.Save(&out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	if limit := out.n / 20; allocated > limit {
		t.Fatalf("Save allocated %d bytes writing %d, want at most %d (5 %%)", allocated, out.n, limit)
	}
	t.Logf("Save allocated %d bytes writing %d", allocated, out.n)
}

// countingWriter counts and drops what is written to it.
type countingWriter struct{ n uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += uint64(len(p))
	return len(p), nil
}
