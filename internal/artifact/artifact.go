// Package artifact implements the versioned, checksummed binary snapshot
// format that decouples LoCEC's expensive offline training from online
// serving: a trained pipeline — graph CSR, per-ego community assignments,
// Phase II model weights, the Phase III combiner and every edge
// prediction — is serialized once (`locec train -out model.locec`) and any
// number of servers cold-start from the file in deserialization time
// instead of training time.
//
// The on-disk layout (documented in full in docs/FORMATS.md) is a fixed
// header — magic "LOCECART", a little-endian format version, a section
// table — followed by independently CRC-32-checksummed section payloads.
// Load verifies every checksum up front but decodes sections lazily on
// first access, so reading just the metadata of a large artifact stays
// cheap.
//
// Compatibility rules: readers reject files whose format version is newer
// than they understand (ErrVersion); older versions remain readable as
// the format evolves; unknown section tags are ignored, so additive
// extensions do not bump the version.
package artifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/social"
)

// Magic identifies a locec artifact file; it is the first 8 bytes.
const Magic = "LOCECART"

// FormatVersion is the newest format this binary writes and understands.
const FormatVersion = 1

// Section tags of format version 1.
const (
	secMeta     = "meta"     // JSON Meta document
	secGraph    = "graph"    // binary CSR adjacency
	secEgos     = "egos"     // Phase I+II per-ego output
	secModel    = "model"    // Phase II classifier blob (optional)
	secCombiner = "combiner" // Phase III logistic regression (optional)
	secPreds    = "preds"    // per-edge predictions + probabilities
	secDataset  = "dataset"  // raw dataset: features/labels/interactions (optional)
)

// Sentinel errors for the corruption and compatibility paths; tests and
// callers match them with errors.Is.
var (
	// ErrBadMagic marks a file that is not a locec artifact at all.
	ErrBadMagic = errors.New("not a locec artifact (bad magic)")
	// ErrVersion marks an artifact written by a newer format version.
	ErrVersion = errors.New("artifact format version not supported")
	// ErrTruncated marks a file shorter than its header or section table
	// declares.
	ErrTruncated = errors.New("artifact truncated")
	// ErrChecksum marks a section whose payload fails its CRC-32.
	ErrChecksum = errors.New("artifact section checksum mismatch")
)

// crcTable is the polynomial every section checksum uses.
var crcTable = crc32.MakeTable(crc32.IEEE)

// Meta is the artifact's JSON metadata section — the part of a snapshot
// that is cheap to read without decoding anything else.
type Meta struct {
	// FormatVersion echoes the header version for human inspection.
	FormatVersion int `json:"format_version"`
	// Classifier is the Phase II variant that produced the snapshot.
	Classifier string `json:"classifier"`
	// Classes is the probability-vector width.
	Classes int `json:"classes"`
	// Nodes / Edges / Communities describe the snapshot's scale.
	Nodes       int `json:"nodes"`
	Edges       int `json:"edges"`
	Communities int `json:"communities"`
	// Seed is the dataset seed the producer trained on (0 if unknown).
	Seed int64 `json:"seed,omitempty"`
	// CreatedAtUnix is the training wall-clock time (0 when the producer
	// wants byte-deterministic output).
	CreatedAtUnix int64 `json:"created_at_unix,omitempty"`
	// PhaseNs records the original run's per-phase durations in
	// nanoseconds, keyed like core.PhaseTimes.Map, so a consumer restored
	// from file can still report what training cost.
	PhaseNs map[string]float64 `json:"phase_ns,omitempty"`
	// Epoch / WALSeq stamp checkpoint artifacts written by the WAL
	// checkpointer: the mutation epoch the snapshot captured and the last
	// WAL sequence number whose effects it includes. Recovery replays only
	// log records with seq > WALSeq, which is what makes the
	// checkpoint-then-truncate dance crash-safe in either order.
	Epoch  int64  `json:"epoch,omitempty"`
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// ShardIndex / ShardCount stamp a per-shard artifact cut from a full
	// snapshot by CutShards: the file carries ego results only for nodes
	// the consistent-hash ring (internal/ring) assigns to ShardIndex, and
	// graph edges + predictions only for edges whose canonical smaller
	// endpoint it owns. Nodes stays the GLOBAL node count so IDs keep
	// their meaning; Edges counts only the owned slice. ShardCount == 0
	// marks an ordinary unsharded artifact. Readers that predate sharding
	// ignore these fields and simply see a sparse snapshot.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
}

// Sharded reports whether this artifact is one slice of a sharded set.
func (m Meta) Sharded() bool { return m.ShardCount > 0 }

// Artifact is one snapshot, either built live from a pipeline run (New)
// or loaded from a byte stream (Load). Loaded sections decode lazily and
// memoize; an Artifact is not safe for concurrent use until every
// accessor has been called once.
type Artifact struct {
	meta Meta

	// live side (New)
	g  *graph.Graph
	ex *core.Export
	ds *social.Dataset // optional; EmbedDataset / decoded dataset section

	// loaded side (Load): raw verified section payloads, decoded on
	// first access into g / ex above.
	raw map[string][]byte
}

// New builds an artifact from a completed run: the dataset's graph and
// the result's Export. seed records which dataset the producer trained on.
func New(g *graph.Graph, ex *core.Export, seed int64) (*Artifact, error) {
	if g == nil || ex == nil {
		return nil, fmt.Errorf("artifact: nil graph or export")
	}
	if err := ex.Validate(); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if len(ex.Egos) != g.NumNodes() {
		return nil, fmt.Errorf("artifact: %d ego results for a %d-node graph", len(ex.Egos), g.NumNodes())
	}
	comms := 0
	for _, er := range ex.Egos {
		comms += len(er.Comms)
	}
	return &Artifact{
		meta: Meta{
			FormatVersion: FormatVersion,
			Classifier:    ex.ClassifierName,
			Classes:       ex.Edges.Classes(),
			Nodes:         g.NumNodes(),
			Edges:         g.NumEdges(),
			Communities:   comms,
			Seed:          seed,
			PhaseNs:       phaseNs(ex.Times),
		},
		g:  g,
		ex: ex,
	}, nil
}

// phaseNs renders PhaseTimes for the meta document.
func phaseNs(t core.PhaseTimes) map[string]float64 {
	out := make(map[string]float64, 4)
	for name, d := range t.Map() {
		out[name] = float64(d.Nanoseconds())
	}
	return out
}

// StampCreated records the artifact's creation time in the metadata.
// Producers that want byte-identical output for identical inputs (tests,
// content-addressed stores) simply skip this.
func (a *Artifact) StampCreated(t time.Time) {
	a.meta.CreatedAtUnix = t.Unix()
}

// StampWAL records the serving epoch and the last WAL sequence number
// whose effects the snapshot includes; the WAL checkpointer calls this so
// recovery knows which log records the checkpoint already covers.
func (a *Artifact) StampWAL(epoch int64, seq uint64) {
	a.meta.Epoch = epoch
	a.meta.WALSeq = seq
}

// EmbedDataset attaches the raw dataset — user features, interaction
// counts, ground-truth labels and the revealed set — so the snapshot
// stays *mutable*: a server restored from it can keep applying
// incremental mutations instead of serving read-only. The dataset's
// graph must be the artifact's graph. Adds the optional "dataset"
// section; readers that predate it simply ignore the tag.
func (a *Artifact) EmbedDataset(ds *social.Dataset) error {
	if ds == nil {
		return fmt.Errorf("artifact: nil dataset")
	}
	if len(ds.UserFeatures) != a.meta.Nodes {
		return fmt.Errorf("artifact: dataset has %d user rows, meta declares %d nodes",
			len(ds.UserFeatures), a.meta.Nodes)
	}
	a.ds = ds
	return nil
}

// HasDataset reports whether the snapshot carries the raw dataset (either
// embedded live or present as a loaded section).
func (a *Artifact) HasDataset() bool {
	return a.ds != nil || len(a.raw[secDataset]) > 0
}

// Dataset returns the embedded raw dataset, decoding the section on first
// access for loaded artifacts, with its graph wired to the artifact's.
// Returns (nil, nil) when the artifact carries no dataset section — a
// train-only snapshot, valid but immutable.
func (a *Artifact) Dataset() (*social.Dataset, error) {
	if a.ds != nil {
		return a.ds, nil
	}
	blob := a.raw[secDataset]
	if len(blob) == 0 {
		return nil, nil
	}
	g, err := a.Graph()
	if err != nil {
		return nil, err
	}
	ds, err := decodeDataset(blob, a.meta.Nodes)
	if err != nil {
		return nil, fmt.Errorf("artifact: dataset section: %w", err)
	}
	ds.G = g
	a.ds = ds
	return ds, nil
}

// Meta returns the metadata section.
func (a *Artifact) Meta() Meta { return a.meta }

// Graph returns the snapshot's graph, decoding the CSR section on first
// access for loaded artifacts.
func (a *Artifact) Graph() (*graph.Graph, error) {
	if a.g != nil {
		return a.g, nil
	}
	g, err := decodeGraph(a.raw[secGraph])
	if err != nil {
		return nil, fmt.Errorf("artifact: graph section: %w", err)
	}
	if g.NumNodes() != a.meta.Nodes {
		return nil, fmt.Errorf("artifact: graph section has %d nodes, meta declares %d",
			g.NumNodes(), a.meta.Nodes)
	}
	a.g = g
	return g, nil
}

// Export returns the snapshot's pipeline export, decoding the egos,
// predictions, model and combiner sections on first access for loaded
// artifacts. Feed it to core.Pipeline.RunFromArtifact to obtain a
// ready-to-serve *core.Result.
func (a *Artifact) Export() (*core.Export, error) {
	if a.ex != nil {
		return a.ex, nil
	}
	ex := &core.Export{
		ClassifierName: a.meta.Classifier,
		Times:          metaTimes(a.meta.PhaseNs),
	}
	var err error
	if ex.Egos, err = decodeEgos(a.raw[secEgos]); err != nil {
		return nil, fmt.Errorf("artifact: egos section: %w", err)
	}
	// Pin cross-section consistency through the meta node count (Graph
	// does the same), so consumers indexing Egos by node ID — e.g. the
	// /v1/communities handler — can trust len(Egos) == NumNodes().
	if len(ex.Egos) != a.meta.Nodes {
		return nil, fmt.Errorf("artifact: egos section has %d entries, meta declares %d nodes",
			len(ex.Egos), a.meta.Nodes)
	}
	if err = decodePreds(a.raw[secPreds], ex); err != nil {
		return nil, fmt.Errorf("artifact: preds section: %w", err)
	}
	if ex.Edges.Len() != a.meta.Edges {
		return nil, fmt.Errorf("artifact: preds section has %d edges, meta declares %d",
			ex.Edges.Len(), a.meta.Edges)
	}
	if blob := a.raw[secModel]; len(blob) > 0 {
		ex.Model = blob
	}
	if blob := a.raw[secCombiner]; len(blob) > 0 {
		if ex.Combiner, err = decodeCombiner(blob); err != nil {
			return nil, fmt.Errorf("artifact: combiner section: %w", err)
		}
	}
	if err := ex.Validate(); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	a.ex = ex
	return ex, nil
}

// metaTimes reverses phaseNs.
func metaTimes(ns map[string]float64) core.PhaseTimes {
	var t core.PhaseTimes
	t.Training = time.Duration(ns["training"])
	t.Phase1 = time.Duration(ns["division"])
	t.Phase2 = time.Duration(ns["aggregation"])
	t.Phase3 = time.Duration(ns["combination"])
	t.CombinerTrain = time.Duration(ns["combiner_train"])
	t.CombinerPredict = time.Duration(ns["combiner_predict"])
	return t
}

// section pairs a tag with its encoder during Save.
type section struct {
	tag   string
	write func(*encoder) error
}

// blob is the encoder of a section that is already a byte slice.
func blob(b []byte) func(*encoder) error {
	return func(e *encoder) error { e.bytes(b); return nil }
}

// Save writes the artifact in format version 1. Output is deterministic
// for identical inputs (section order is fixed and no timestamps are
// invented), so identical runs produce byte-identical artifacts. Sections
// stream through one small buffer twice — into io.Discard to measure the
// header's lengths and CRCs, then to w — and Save fails if a section's
// bytes differ between the passes.
func (a *Artifact) Save(w io.Writer) error {
	g, err := a.Graph()
	if err != nil {
		return err
	}
	ex, err := a.Export()
	if err != nil {
		return err
	}
	metaBlob, err := json.Marshal(a.meta)
	if err != nil {
		return fmt.Errorf("artifact: encode meta: %w", err)
	}
	sections := []section{
		{secMeta, blob(metaBlob)},
		{secGraph, func(e *encoder) error { encodeGraph(e, g); return nil }},
		{secEgos, func(e *encoder) error { return encodeEgos(e, ex.Egos) }},
	}
	if len(ex.Model) > 0 {
		sections = append(sections, section{secModel, blob(ex.Model)})
	}
	if ex.Combiner != nil {
		b, err := encodeCombiner(ex.Combiner)
		if err != nil {
			return fmt.Errorf("artifact: encode combiner: %w", err)
		}
		sections = append(sections, section{secCombiner, blob(b)})
	}
	sections = append(sections, section{secPreds, func(e *encoder) error { encodePreds(e, ex.Edges); return nil }})
	if ds, err := a.Dataset(); err != nil {
		return err
	} else if ds != nil {
		sections = append(sections, section{secDataset, datasetSection(ds)})
	}

	e := newEncoder()
	lens, sums := make([]uint64, len(sections)), make([]uint32, len(sections))
	for i, s := range sections {
		if lens[i], sums[i], err = e.section(io.Discard, s.write); err != nil {
			return fmt.Errorf("artifact: encode %s: %w", s.tag, err)
		}
	}
	header := make([]byte, 0, headerSize(len(sections)))
	header = append(header, Magic...)
	header = appendU16(header, FormatVersion)
	header = appendU16(header, 0) // reserved
	header = appendU32(header, uint32(len(sections)))
	offset := uint64(headerSize(len(sections)))
	for i, s := range sections {
		var tag [tagSize]byte
		copy(tag[:], s.tag)
		header = append(header, tag[:]...)
		header = appendU64(header, offset)
		header = appendU64(header, lens[i])
		header = appendU32(header, sums[i])
		header = appendU32(header, 0) // reserved
		offset += lens[i]
	}
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("artifact: write header: %w", err)
	}
	for i, s := range sections {
		n, sum, err := e.section(w, s.write)
		if err != nil {
			return fmt.Errorf("artifact: write %s section: %w", s.tag, err)
		}
		if n != lens[i] || sum != sums[i] {
			return fmt.Errorf("artifact: %s section changed while it was written", s.tag)
		}
	}
	return nil
}

const (
	tagSize       = 8
	fixedHeader   = len(Magic) + 2 + 2 + 4 // magic + version + reserved + count
	tableEntrySz  = tagSize + 8 + 8 + 4 + 4
	maxSectionCnt = 64 // sanity bound; v1 writes 6
)

// headerSize is the byte length of the fixed header plus n table entries.
func headerSize(n int) int { return fixedHeader + n*tableEntrySz }

// Load reads an entire artifact stream, validates the header and every
// section checksum, and returns an Artifact whose sections decode lazily
// on first access. All corruption paths — short reads, foreign files,
// future format versions, bit flips — surface as wrapped errors matching
// the package sentinels, never panics.
func Load(r io.Reader) (*Artifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("artifact: read: %w", err)
	}
	return LoadBytes(data)
}

// LoadBytes is Load on bytes already in memory, parsed in place: the
// returned Artifact's sections are views into data, so the caller hands
// data over and must not modify it afterwards. It is how a caller that
// has read a whole file avoids a second copy (Load's io.ReadAll grows its
// buffer by doubling, ≈ 5.8× the file in allocations).
func LoadBytes(data []byte) (*Artifact, error) {
	if len(data) < fixedHeader {
		return nil, fmt.Errorf("artifact: %w: %d bytes is shorter than the %d-byte header",
			ErrTruncated, len(data), fixedHeader)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("artifact: %w", ErrBadMagic)
	}
	version := getU16(data[len(Magic):])
	if version > FormatVersion {
		return nil, fmt.Errorf("artifact: %w: file is version %d, this binary reads up to %d",
			ErrVersion, version, FormatVersion)
	}
	if version == 0 {
		return nil, fmt.Errorf("artifact: %w: version 0 is invalid", ErrVersion)
	}
	nsect := int(getU32(data[len(Magic)+4:]))
	if nsect <= 0 || nsect > maxSectionCnt {
		return nil, fmt.Errorf("artifact: header declares %d sections (corrupt header?)", nsect)
	}
	if len(data) < headerSize(nsect) {
		return nil, fmt.Errorf("artifact: %w: %d bytes cannot hold a %d-section table",
			ErrTruncated, len(data), nsect)
	}
	raw := make(map[string][]byte, nsect)
	for i := 0; i < nsect; i++ {
		entry := data[fixedHeader+i*tableEntrySz:]
		tag := trimTag(entry[:tagSize])
		off := getU64(entry[tagSize:])
		length := getU64(entry[tagSize+8:])
		sum := getU32(entry[tagSize+16:])
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("artifact: %w: section %q claims bytes [%d,%d) of a %d-byte file",
				ErrTruncated, tag, off, off+length, len(data))
		}
		payload := data[off : off+length]
		if crc32.Checksum(payload, crcTable) != sum {
			return nil, fmt.Errorf("artifact: %w: section %q", ErrChecksum, tag)
		}
		raw[tag] = payload
	}
	for _, required := range []string{secMeta, secGraph, secEgos, secPreds} {
		if _, ok := raw[required]; !ok {
			return nil, fmt.Errorf("artifact: missing required section %q", required)
		}
	}
	a := &Artifact{raw: raw}
	if err := json.Unmarshal(raw[secMeta], &a.meta); err != nil {
		return nil, fmt.Errorf("artifact: decode meta: %w", err)
	}
	return a, nil
}

// trimTag strips the NUL padding from a table tag.
func trimTag(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// SaveFile writes the artifact to path (0644, truncating).
func (a *Artifact) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := a.Save(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads an artifact from path. Only regular files are accepted
// (checked on the open descriptor, so there is no stat/open race): a
// FIFO or device node like /dev/zero would otherwise feed the read an
// endless stream — a denial of service when the path arrives via
// POST /v1/reload. The read buffer is sized from the same Stat; the read
// still runs to EOF, so a file that grew after the Stat is read whole.
func LoadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	defer func() { _ = f.Close() }()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if !info.Mode().IsRegular() {
		return nil, fmt.Errorf("artifact: %s is not a regular file (%s)", path, info.Mode())
	}
	data, err := readSized(f, info.Size())
	if err != nil {
		return nil, fmt.Errorf("artifact: read: %w", err)
	}
	return LoadBytes(data)
}

// readSized reads r to EOF into a buffer pre-grown to size: one
// allocation when r holds size bytes, a whole read when it holds more.
func readSized(r io.Reader, size int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(size) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}
