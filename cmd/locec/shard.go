package main

// locec shard cuts a full .locec artifact into N per-shard artifacts for
// a fleet of `locec-serve -shard i/N` instances behind locec-router:
//
//	locec shard -in model.locec -n 4
//	# writes model-0-of-4.locec ... model-3-of-4.locec
//
// Ownership follows internal/ring's consistent hash of node IDs — the
// same pure function the router and each shard server compute — so the
// cut needs no manifest: shard i of N is fully described by its stamp.
//
// The cut is one pass over the full artifact's section bytes for all N
// shards (artifact.CutShards): each node's owner is hashed once, an owned
// ego's record is copied as it is and every other slot gets a 12-byte
// empty record, and the graph CSR and prediction runs are written as
// section bytes, which SaveFile then copies without re-encoding.

import (
	"flag"
	"fmt"
	"time"

	"locec/internal/artifact"
)

func runShard(args []string) {
	fs := flag.NewFlagSet("locec shard", flag.ExitOnError)
	var (
		in  = fs.String("in", "model.locec", "full artifact to cut")
		n   = fs.Int("n", 2, "number of shards")
		out = fs.String("out", "", "output path stem (default: the input path; shard i becomes <stem>-i-of-N.locec)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error
	if *out == "" {
		*out = *in
	}

	full, err := artifact.LoadFile(*in)
	if err != nil {
		fatal(err)
	}
	meta := full.Meta()
	shards, err := artifact.CutShards(full, *n)
	if err != nil {
		fatal(err)
	}
	for i, sh := range shards {
		sh.StampCreated(time.Now())
		path := artifact.ShardPath(*out, i, *n)
		if err := sh.SaveFile(path); err != nil {
			fatal(err)
		}
		sm := sh.Meta()
		fmt.Printf("wrote %s (shard %d/%d: %d of %d nodes' egos, %d of %d edges)\n",
			path, i, *n, ownedEgos(sh), sm.Nodes, sm.Edges, meta.Edges)
	}
	fmt.Printf("serve shard i with: locec-serve -shard i/%d -artifact %s\n", *n, *out)
	fmt.Printf("route with:         locec-router -shards <addr0,...,addr%d>\n", *n-1)
}

// ownedEgos counts the non-placeholder ego results in a cut shard.
func ownedEgos(a *artifact.Artifact) int {
	ex, err := a.Export()
	if err != nil {
		return 0
	}
	owned := 0
	for _, er := range ex.Egos {
		if len(er.Members) > 0 || len(er.Comms) > 0 {
			owned++
		}
	}
	return owned
}
