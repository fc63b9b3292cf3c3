package client

import (
	"context"
	"fmt"

	"pubtac"
	"pubtac/internal/stats"
)

// CollectShard executes one campaign shard on the daemon (POST /v1/shards)
// and returns the shard's execution times in run order. The worker replies
// with the runs in the version-2 summary frame; they are exactly runs
// spec.Lo..spec.Hi-1 of the campaign, whoever computes them, and are read
// out of the frame (stats.DecodeRuns) without building a summary.
func (c *Client) CollectShard(ctx context.Context, spec pubtac.ShardSpec) ([]float64, error) {
	resp, err := c.post(ctx, "/v1/shards", spec)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readOK(resp)
	if err != nil {
		return nil, err
	}
	runs, err := stats.DecodeRuns(body)
	if err != nil {
		return nil, fmt.Errorf("client: shard %s(%s)[%d,%d): %w",
			spec.Program, spec.Input, spec.Lo, spec.Hi, err)
	}
	if len(runs) != spec.Runs() {
		return nil, fmt.Errorf("client: shard %s(%s)[%d,%d): worker returned %d runs, want %d",
			spec.Program, spec.Input, spec.Lo, spec.Hi, len(runs), spec.Runs())
	}
	return runs, nil
}
