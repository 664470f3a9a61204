package artifact

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/social"
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
		if _, err := decodeEgos(appendU64(nil, n), FormatVersion, false); err == nil {
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
	if got := bytesAllocated(func() { _, err = decodeEgos(payload, FormatVersion, false) }); got > uint64(len(payload)) {
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

// syntheticEgos returns n egos of one to eight members in one to three
// communities, each with a Probs vector, without dividing a graph.
func syntheticEgos(n int) []*core.EgoResult {
	egos := make([]*core.EgoResult, n)
	for u := range egos {
		nm := 1 + u%8
		nc := 1 + u%3
		members, commIdx, tightness := make([]graph.NodeID, nm), make([]int, nm), make([]float64, nm)
		for i := range members {
			members[i] = graph.NodeID((u + 1 + i) % n)
			commIdx[i] = i % nc
			tightness[i] = float64(i+1) / float64(nm)
		}
		slices.Sort(members)
		egos[u] = core.NewEgoResult(graph.NodeID(u), members, commIdx, tightness, min(nc, nm))
		for _, c := range egos[u].Comms {
			c.Probs = []float64{0.5, 0.25, 0.25}
			c.TruthVotes[u%social.NumLabels] = u % 5
		}
	}
	return egos
}

// goldenEgos is the egos section of the checked-in version 3 LoCEC-XGB
// golden, whose egos layout version 4 keeps.
func goldenEgos(t *testing.T) []byte {
	t.Helper()
	a, err := LoadFile(filepath.Join("testdata", "golden-labelprop+xgb-v3.locec"))
	if err != nil {
		t.Fatal(err)
	}
	return a.raw[secEgos]
}

// TestDecodeEgosAllocations: an immutable snapshot's egos are cut from
// slabs sized by a first pass, so decodeEgos makes the same number of
// allocations on the 80-ego golden as on a 10 000-ego section; a mutable
// snapshot's egos get slabs of their own, at least one allocation each.
// Either way the decoded egos re-encode to the bytes they came from.
func TestDecodeEgosAllocations(t *testing.T) {
	large, err := egosBytes(syntheticEgos(10_000))
	if err != nil {
		t.Fatal(err)
	}
	var allocs []float64
	for _, payload := range [][]byte{goldenEgos(t), large} {
		for _, mutable := range []bool{false, true} {
			decoded, err := decodeEgos(payload, FormatVersion, mutable)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := egosBytes(decoded); err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("mutable %v: decoded egos re-encode differently (err %v)", mutable, err)
			}
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() { _, _ = decodeEgos(payload, FormatVersion, false) }))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("%v allocations for the golden's egos, %v for 10 000 egos: want one constant", allocs[0], allocs[1])
	}
	if a := testing.AllocsPerRun(2, func() { _, _ = decodeEgos(large, FormatVersion, true) }); a < 10_000 {
		t.Fatalf("a mutable decode of 10 000 egos made %v allocations, want slabs per ego", a)
	}
}

// TestExportCutsMutableEgosApart: Export cuts an immutable snapshot's egos
// from shared slabs — ego 1's members follow ego 0's ego-level and
// community runs in one ID array — and a snapshot that carries a dataset
// section, which epochs mutate, into slabs of each ego's own.
func TestExportCutsMutableEgosApart(t *testing.T) {
	adjacent := func(a *Artifact) bool {
		ex, err := a.Export()
		if err != nil {
			t.Fatal(err)
		}
		e0, e1 := ex.Egos[0].Members, ex.Egos[1].Members
		if len(e0) == 0 || len(e1) == 0 {
			t.Fatal("golden egos 0 and 1 have no members")
		}
		return unsafe.SliceData(e1) == (*graph.NodeID)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(e0)), 2*4*len(e0)))
	}
	path := filepath.Join("testdata", "golden-labelprop+xgb-v3.locec")
	a, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !adjacent(a) {
		t.Fatal("an immutable snapshot's egos are not cut from shared slabs")
	}
	if a, err = LoadFile(path); err != nil {
		t.Fatal(err)
	}
	a.raw[secDataset] = []byte{0} // Export decodes egos without reading it
	if adjacent(a) {
		t.Fatal("a mutable snapshot's egos share slabs")
	}
}

// TestDecodedEgoViewsCapped: every slice of a decoded ego — its Members,
// CommIdx, Tightness and Comms, and each community's Members, Tightness
// and Probs — is a capped view of a shared slab, so an append to one
// copies and leaves every other ego as it was.
func TestDecodedEgoViewsCapped(t *testing.T) {
	payload, err := egosBytes(syntheticEgos(50))
	if err != nil {
		t.Fatal(err)
	}
	for _, mutable := range []bool{false, true} {
		egos, err := decodeEgos(payload, FormatVersion, mutable)
		if err != nil {
			t.Fatal(err)
		}
		for _, er := range egos {
			er.Members = append(er.Members, 1<<31)
			er.CommIdx = append(er.CommIdx, -1)
			er.Tightness = append(er.Tightness, -1)
			er.Comms = append(er.Comms, nil)
			for _, c := range er.Comms[:len(er.Comms)-1] {
				c.Members = append(c.Members, 1<<31)
				c.Tightness = append(c.Tightness, -1)
				c.Probs = append(c.Probs, -1)
			}
		}
		again, err := decodeEgos(payload, FormatVersion, mutable)
		if err != nil {
			t.Fatal(err)
		}
		for u, er := range egos {
			want := again[u]
			n := len(want.Members)
			if !slices.Equal(er.Members[:n], want.Members) || !slices.Equal(er.CommIdx[:n], want.CommIdx) ||
				!slices.Equal(er.Tightness[:n], want.Tightness) {
				t.Fatalf("mutable %v, ego %d: an append to another view overwrote its ego-level arrays", mutable, u)
			}
			for i, c := range want.Comms {
				g := er.Comms[i]
				m := len(c.Members)
				if !slices.Equal(g.Members[:m], c.Members) || !slices.Equal(g.Tightness[:m], c.Tightness) ||
					!slices.Equal(g.Probs[:len(c.Probs)], c.Probs) {
					t.Fatalf("mutable %v, ego %d community %d: an append to another view overwrote it", mutable, u, i)
				}
			}
		}
	}
}

// TestEncodeEgosKeepsNaNTightness: a record whose tightness is NaN decodes,
// so it must encode again — the cut copies such a record, and a shard cut
// from the decoded export must not fail where the byte cut succeeds.
func TestEncodeEgosKeepsNaNTightness(t *testing.T) {
	ego := core.NewEgoResult(0, []graph.NodeID{1}, []int{0}, []float64{math.NaN()}, 1)
	b, err := egosBytes([]*core.EgoResult{ego, {Ego: 1}})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeEgos(b, FormatVersion, false)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := egosBytes(decoded); err != nil || !bytes.Equal(again, b) {
		t.Fatalf("a decoded NaN tightness re-encodes to %d bytes (err %v), want the %d it came from", len(again), err, len(b))
	}
}

// TestEgoWalkerRefuses: decodeEgos and CutShards refuse the same crafted
// egos records — a misplaced record, a community index out of range, a
// foreign truth-vote width, a trailing byte — and accept the sound one.
func TestEgoWalkerRefuses(t *testing.T) {
	ego := core.NewEgoResult(0, []graph.NodeID{1}, []int{0}, []float64{0.5}, 1)
	good, err := egosBytes([]*core.EgoResult{ego, {Ego: 1}})
	if err != nil {
		t.Fatal(err)
	}
	misplaced, err := egosBytes([]*core.EgoResult{{Ego: 1}, ego})
	if err != nil {
		t.Fatal(err)
	}
	patched := func(off int, v uint32) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	// Record 0 from byte 8: ego, 1 member, member 1, index 0 (byte 20),
	// its tightness, 1 community (byte 32), 0 Probs, truth-vote width.
	cases := map[string][]byte{
		"misplaced":        misplaced,
		"index":            patched(20, 1),
		"truth-vote width": patched(40, 2),
		"trailing byte":    append(bytes.Clone(good), 0),
	}
	graphSection, err := encoded(func(e *encoder) error { encodeGraph(e, graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})); return nil })
	if err != nil {
		t.Fatal(err)
	}
	edges, err := core.NewEdgeStore([]uint64{graph.Edge{U: 0, V: 1}.Key()}, []social.Label{0}, []float64{1, 0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	predsSection, err := encoded(func(e *encoder) error { encodePreds(e, edges); return nil })
	if err != nil {
		t.Fatal(err)
	}
	cut := func(egos []byte) error {
		a := &Artifact{meta: Meta{FormatVersion: FormatVersion, Nodes: 2, Edges: 1},
			raw: map[string][]byte{secGraph: graphSection, secEgos: egos, secPreds: predsSection}}
		_, err := CutShards(a, 2)
		return err
	}
	if _, err := decodeEgos(good, FormatVersion, false); err != nil {
		t.Fatal(err)
	}
	if err := cut(good); err != nil {
		t.Fatal(err)
	}
	for name, b := range cases {
		if _, err := decodeEgos(b, FormatVersion, false); err == nil {
			t.Errorf("%s: decodeEgos accepted the section", name)
		}
		if err := cut(b); err == nil {
			t.Errorf("%s: CutShards accepted the section", name)
		}
	}
}
