package artifact

// StampShard stamps a shard's place in its cut, as CutShards does; the
// reference cut in shard_test.go builds its shards with New and this.
func (a *Artifact) StampShard(index, count int) {
	a.meta.ShardIndex, a.meta.ShardCount = index, count
}
