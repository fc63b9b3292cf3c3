package client

import (
	"context"
	"fmt"

	"pubtac"
	"pubtac/internal/stats"
)

// CollectShard executes one campaign shard on the daemon (POST /v1/shards)
// and returns the shard's execution times in run order. The worker replies
// with a runs frame (stats.EncodeRuns, 28 + 8·n bytes for n runs); the runs
// are exactly runs spec.Lo..spec.Hi-1 of the campaign, whoever computes
// them. A frame this build cannot decode, such as one of another
// stats.SummaryWireVersion, is an error, and the coordinator recomputes the
// shard locally.
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
