package main

// Operator tooling for the locec-serve write-ahead log:
//
//	locec wal-dump   -dir wal/            inspect a WAL directory read-only
//	locec wal-replay -dir wal/ -out x.locec   offline recovery: checkpoint
//	                                          + log -> a fresh artifact
//
// wal-replay performs exactly the recovery locec-serve performs on boot,
// but writes the result as an artifact instead of serving it — useful for
// inspecting what a crashed server would come back as, or migrating a WAL
// directory's state onto a server without its log.

import (
	"flag"
	"fmt"
	"strings"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/wal"
)

// runWalDump prints a WAL directory's contents without locking or
// repairing anything. The return value is the process exit code: 0 for a
// clean log, 1 when the log was truncated at a bad record — so fleet
// tooling can detect a torn tail without parsing output.
func runWalDump(args []string) int {
	fs := flag.NewFlagSet("locec wal-dump", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "WAL directory (as given to locec-serve -wal)")
		verbose = fs.Bool("v", false, "print every mutation, not just per-record summaries")
	)
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error
	if *dir == "" {
		fatal(fmt.Errorf("wal-dump: -dir is required"))
	}

	if art, err := artifact.LoadFile(wal.CheckpointPath(*dir)); err == nil {
		meta := art.Meta()
		fmt.Printf("checkpoint: epoch %d, wal_seq %d, %d nodes, %d edges, dataset embedded: %v\n",
			meta.Epoch, meta.WALSeq, meta.Nodes, meta.Edges, art.HasDataset())
	} else {
		fmt.Printf("checkpoint: none (%v)\n", err)
	}

	baseSeq, batches, truncated, err := wal.Scan(wal.OSFS{}, *dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("log: base_seq %d, %d records\n", baseSeq, len(batches))
	for _, b := range batches {
		kinds := map[core.MutationKind]int{}
		for _, m := range b.Muts {
			kinds[m.Kind]++
		}
		fmt.Printf("  seq %d: %d mutations (add=%d remove=%d relabel=%d)\n",
			b.Seq, len(b.Muts), kinds[core.MutAdd], kinds[core.MutRemove], kinds[core.MutRelabel])
		if *verbose {
			for _, m := range b.Muts {
				fmt.Printf("    %-8s u=%d v=%d label=%s revealed=%v\n",
					m.Kind, m.U, m.V, m.Label, m.Revealed)
			}
		}
	}
	if truncated > 0 {
		fmt.Printf("wal-dump: TRUNCATED log: %d-byte torn tail after the last intact record (seq %d, %d records survive; repaired on next boot)\n",
			truncated, baseSeq+uint64(len(batches)), len(batches))
		return 1
	}
	return 0
}

// walReplayOpts holds wal-replay's flag values.
type walReplayOpts struct {
	dir, out, detector string
	patience           int
}

// walReplayFlags declares wal-replay's flags. -gn-patience defaults to
// exact, which is what `locec train` and `locec run` (which have no such
// flag) divide under: replayed epochs must re-divide dirty egos by the rule
// the artifact's other egos, and its classifier's training set, came from.
func walReplayFlags() (*flag.FlagSet, *walReplayOpts) {
	fs := flag.NewFlagSet("locec wal-replay", flag.ExitOnError)
	f := new(walReplayOpts)
	fs.StringVar(&f.dir, "dir", "", "WAL directory (as given to locec-serve -wal)")
	fs.StringVar(&f.out, "out", "replayed.locec", "artifact output path")
	fs.StringVar(&f.detector, "detector", "gn", "Phase I detector the serving config used: "+strings.Join(core.DetectorNames(), ", "))
	fs.IntVar(&f.patience, "gn-patience", 0, "Girvan-Newman early-stop patience (0 = exact, as trained)")
	return fs, f
}

// runWalReplay rebuilds the post-crash state offline and writes it as an
// artifact: load the checkpoint, replay every surviving log record with
// seq > the checkpoint's wal_seq, export. The return value is the
// process exit code: 0 for a full recovery from a clean log, 1 when the
// log was truncated at a bad record — the written artifact then reflects
// a PARTIAL recovery (everything up to the tear), and fleet tooling must
// decide whether that is acceptable.
func runWalReplay(args []string) int {
	fs, f := walReplayFlags()
	_ = fs.Parse(args)
	if f.dir == "" {
		fatal(fmt.Errorf("wal-replay: -dir is required"))
	}

	art, err := artifact.LoadFile(wal.CheckpointPath(f.dir))
	if err != nil {
		fatal(fmt.Errorf("wal-replay: no usable checkpoint: %w", err))
	}
	ds, err := art.Dataset()
	if err != nil {
		fatal(err)
	}
	if ds == nil {
		fatal(fmt.Errorf("wal-replay: checkpoint has no embedded dataset; it cannot be replayed onto"))
	}
	ex, err := art.Export()
	if err != nil {
		fatal(err)
	}
	meta := art.Meta()

	divCfg := core.DivisionConfig{Seed: meta.Seed, GNPatience: f.patience}
	det, err := core.ParseDetector(f.detector)
	if err != nil {
		fatal(fmt.Errorf("wal-replay: %w", err))
	}
	divCfg.Detector = det
	pipe := core.NewPipeline(core.Config{Division: divCfg, Seed: meta.Seed})
	res, err := pipe.RunFromArtifact(ex)
	if err != nil {
		fatal(err)
	}
	if res.Classifier == nil || res.Combiner == nil {
		fatal(fmt.Errorf("wal-replay: checkpoint carries no trained models; records cannot be applied"))
	}

	_, batches, truncated, err := wal.Scan(wal.OSFS{}, f.dir)
	if err != nil {
		fatal(err)
	}
	applied, skipped := 0, 0
	lastSeq := meta.WALSeq
	for _, b := range batches {
		if b.Seq <= meta.WALSeq {
			continue
		}
		nds, nres, _, err := pipe.ApplyMutations(ds, res, b.Muts)
		if err != nil {
			fmt.Printf("seq %d: rejected (%v) — skipped, exactly as the live server would have\n", b.Seq, err)
			skipped++
			lastSeq = b.Seq
			continue
		}
		ds, res = nds, nres
		applied++
		lastSeq = b.Seq
	}

	newEx, err := res.Export()
	if err != nil {
		fatal(err)
	}
	newArt, err := artifact.New(ds.G, newEx, meta.Seed)
	if err != nil {
		fatal(err)
	}
	if err := newArt.EmbedDataset(ds); err != nil {
		fatal(err)
	}
	newArt.StampWAL(meta.Epoch+int64(applied), lastSeq)
	if err := newArt.SaveFile(f.out); err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %d records (%d rejected) atop checkpoint epoch %d; wrote %s (epoch %d, wal_seq %d, %d nodes, %d edges)\n",
		applied, skipped, meta.Epoch, f.out, meta.Epoch+int64(applied), lastSeq,
		ds.G.NumNodes(), ds.G.NumEdges())
	if truncated > 0 {
		fmt.Printf("wal-replay: PARTIAL recovery: log truncated at a bad record (%d-byte torn tail); %s holds state up to seq %d only\n",
			truncated, f.out, lastSeq)
		return 1
	}
	return 0
}
