package serve

// MaxShardRuns is the largest run range a worker accepts in one shard.
const MaxShardRuns = maxShardRuns
