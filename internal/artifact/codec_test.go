package artifact

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/wechat"
)

// encoded runs a section encoder into memory.
func encoded(write func(*encoder) error) ([]byte, error) {
	var buf bytes.Buffer
	_, _, err := newEncoder().section(&buf, write)
	return buf.Bytes(), err
}

// egosBytes is the egos section of egos.
func egosBytes(egos []*core.EgoResult) ([]byte, error) {
	return encoded(func(e *encoder) error { return encodeEgos(e, egos) })
}

// TestReadSizedFileGrownAfterStat: LoadFile sizes its buffer from Stat but
// reads to EOF, so bytes appended between the Stat and the read are read
// too — here the second half of a valid artifact.
func TestReadSizedFileGrownAfterStat(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(80, 7))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 8)
	res, err := core.NewPipeline(core.Config{Classifier: &core.XGBClassifier{Seed: 1}, Seed: 1}).Run(net.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := res.Export()
	if err != nil {
		t.Fatal(err)
	}
	art, err := New(net.Dataset.G, ex, 7)
	if err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	if err := art.Save(&whole); err != nil {
		t.Fatal(err)
	}
	data := whole.Bytes()
	path := filepath.Join(t.TempDir(), "growing.locec")
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	app, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readSized(f, info.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes of a file grown from %d to %d", len(got), info.Size(), len(data))
	}
	if _, err := LoadBytes(got); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeGraphRejectsOverflowingCount pins the crafted-input path CRCs
// cannot catch: a file whose graph section carries a valid checksum for a
// hostile node count. n = MaxInt64 once made n+1 overflow past the bounds
// guard into make([]int32, n+1) — a panic that would crash locec-serve on
// POST /v1/reload {"artifact":…}.
func TestDecodeGraphRejectsOverflowingCount(t *testing.T) {
	for _, n := range []uint64{math.MaxInt64, math.MaxUint64, 1 << 62} {
		payload := appendU64(nil, n)
		payload = appendU64(payload, 0) // adj length
		if _, err := decodeGraph(payload); err == nil {
			t.Errorf("n=%#x: crafted graph header accepted", n)
		}
	}
	// Sane header with no room for the offsets array must also fail.
	payload := appendU64(nil, 10)
	payload = appendU64(payload, 0)
	if _, err := decodeGraph(payload); err == nil {
		t.Error("graph header with missing offsets accepted")
	}
}

// TestDecodeEgosRejectsOverflowingCount gives the sibling decoder the same
// hostile counts.
func TestDecodeEgosRejectsOverflowingCount(t *testing.T) {
	for _, n := range []uint64{math.MaxInt64, math.MaxUint64, 1 << 62} {
		if _, err := decodeEgos(appendU64(nil, n)); err == nil {
			t.Errorf("n=%#x: crafted ego count accepted", n)
		}
	}
}

// bytesAllocated is what one call of f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeEgosCountBoundedByRecordSize: an ego record takes at least 12
// bytes (its id and two counts), so a count the payload cannot hold fails
// before the ego list is allocated. Bounding it by the payload's byte
// count instead let this 64 KB section allocate 512 KB of pointers.
func TestDecodeEgosCountBoundedByRecordSize(t *testing.T) {
	rest := bytes.Repeat([]byte{0xff}, 64<<10)
	payload := append(appendU64(nil, uint64(len(rest))), rest...)
	var err error
	if got := bytesAllocated(func() { _, err = decodeEgos(payload) }); got > uint64(len(payload)) {
		t.Fatalf("decodeEgos allocated %d bytes on a %d-byte section", got, len(payload))
	}
	if err == nil {
		t.Fatal("crafted ego count accepted")
	}
}

// TestDecodeDatasetChecksUsersFirst: with no feature columns the payload
// does not bound the user count, so the section is checked against the
// meta node count before the user table (24 B per user) is allocated.
// Checking it after let this 64 KB section allocate 1.5 MB.
func TestDecodeDatasetChecksUsersFirst(t *testing.T) {
	graphSection, err := encoded(func(e *encoder) error { encodeGraph(e, graph.FromEdges(10, nil)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	rest := bytes.Repeat([]byte{0xff}, 64<<10)
	payload := appendU32(appendU64(nil, uint64(len(rest))), 0) // users, fdim = 0
	payload = append(payload, rest...)
	a := &Artifact{meta: Meta{Nodes: 10}, raw: map[string][]byte{secGraph: graphSection, secDataset: payload}}
	if _, err := a.Graph(); err != nil {
		t.Fatal(err)
	}
	if got := bytesAllocated(func() { _, err = a.Dataset() }); got > uint64(len(payload)) {
		t.Fatalf("Dataset allocated %d bytes on a %d-byte section", got, len(payload))
	}
	if err == nil {
		t.Fatal("dataset section of the wrong user count accepted")
	}
}

// TestDecodePredsRejectsOverflowingCount likewise for the preds section.
func TestDecodePredsRejectsOverflowingCount(t *testing.T) {
	for _, n := range []uint64{math.MaxInt64, math.MaxUint64, 1 << 62} {
		payload := appendU64(nil, n)
		payload = appendU32(payload, 3)
		if err := decodePreds(payload, &core.Export{}); err == nil {
			t.Errorf("n=%#x: crafted preds count accepted", n)
		}
	}
}

// TestDecodePredsRejectsUnsortedKeys: the decoded arrays are wrapped by
// core.NewEdgeStore, whose key-order check is the section's only one.
func TestDecodePredsRejectsUnsortedKeys(t *testing.T) {
	for _, keys := range [][]uint64{{5, 3}, {4, 4}} {
		payload := appendU32(appendU64(nil, 2), 2)
		payload = append(appendU64(appendU64(payload, keys[0]), keys[1]), 0, 1)
		for range 4 {
			payload = appendU64(payload, math.Float64bits(0.5))
		}
		ex := &core.Export{}
		if err := decodePreds(payload, ex); err == nil || !strings.Contains(err.Error(), "strictly increasing") {
			t.Errorf("keys %v: decodePreds = %v, want a key-order error", keys, err)
		}
	}
}

// TestDecodeEgosAllocations: an ego decodes into the six objects
// core.NewEgoResult builds it from (five, plus the CommIdx the decoder
// hands it) and one slab holding its communities' Probs and Result
// vectors; the staging arrays are shared by the whole section. The decoded
// egos re-encode to the same bytes, and no community's vectors reach into
// another's.
func TestDecodeEgosAllocations(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(120, 7))
	if err != nil {
		t.Fatal(err)
	}
	egos := core.Divide(net.Dataset, core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1})
	comms := 0
	for _, er := range egos {
		for _, c := range er.Comms {
			c.Probs = []float64{0.5, 0.25, 0.25}
			c.Result = []float64{1, 2, 3, 4}
			comms++
		}
	}
	payload, err := egosBytes(egos)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeEgos(payload)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := egosBytes(decoded); err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("decoded egos re-encode differently (err %v)", err)
	}
	for _, er := range decoded {
		for _, c := range er.Comms {
			if cap(c.Probs) != len(c.Probs) || cap(c.Result) != len(c.Result) {
				t.Fatalf("ego %d: Probs or Result is not a capped view", er.Ego)
			}
		}
	}
	// 32 covers the ego list, the cursor and the staging arrays' growth.
	budget := float64(7*len(egos) + 32)
	if a := testing.AllocsPerRun(5, func() { _, _ = decodeEgos(payload) }); a > budget {
		t.Fatalf("%v allocations for %d egos and %d communities, want at most %v", a, len(egos), comms, budget)
	}
}
