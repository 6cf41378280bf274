package core

import (
	"context"
	"fmt"
)

// DownloadMultiStream implements the paper's §2.4 "multi-stream" strategy:
// the resource is split into ChunkSize chunks and each chunk is fetched
// from a different replica in parallel (streamWidth goroutines, capped by
// MaxPerHost per replica host; replicas assigned round-robin). A chunk
// whose replica fails is retried on the next replica, so the download
// succeeds as long as one replica holds every byte. The paper notes this maximizes client bandwidth at the cost
// of server load. It is DownloadMultiStreamTo into memory — same chunk
// pipeline, same verification — except that a failed Metalink lookup fails
// it (under StrategyNone none is made, and the primary serves every chunk)
// and that a checksum the chunk sums cannot combine into (md5) is verified
// over the finished buffer.
func (c *Client) DownloadMultiStream(ctx context.Context, host, path string) ([]byte, error) {
	set, err := c.resolveReplicas(ctx, host, path)
	if err != nil {
		return nil, fmt.Errorf("davix: multi-stream needs a metalink: %w", err)
	}
	plan, err := c.planDownload(ctx, set)
	if err != nil {
		return nil, err
	}
	// Chunks are disjoint windows of the one output buffer; the first
	// chunk failure cancels the sibling streams.
	out := make([]byte, plan.size)
	if _, err := c.fetchChunks(ctx, plan, &chunkBuf{buf: out}); err != nil {
		return nil, err
	}
	return out, nil
}
