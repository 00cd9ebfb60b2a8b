package core

import (
	"context"
	"fmt"

	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/telemetry"
)

// TransferStats describes what one delta submission actually moved —
// the numbers behind the CLI's transfer summary line.
type TransferStats struct {
	// TotalBytes is the tree size a full (uncompressed) upload would
	// have carried.
	TotalBytes int64
	// SentBytes is what went over the wire: manifest plus missing-chunk
	// payloads.
	SentBytes int64
	// ChunksTotal/ChunksSent count distinct chunks in the tree and how
	// many had to be uploaded (the rest were already on the server).
	ChunksTotal int
	ChunksSent  int
}

// DedupRatio is the fraction of tree bytes the negotiation avoided
// re-uploading (0 when the tree was fully transferred).
func (t *TransferStats) DedupRatio() float64 {
	if t.TotalBytes <= 0 {
		return 0
	}
	saved := t.TotalBytes - t.SentBytes
	if saved < 0 {
		return 0
	}
	return float64(saved) / float64(t.TotalBytes)
}

// SubmitManifestContext runs the delta submission sequence (DESIGN.md
// §16): negotiate the manifest, stream only missing chunks, store the
// manifest as the upload object, and enqueue the job exactly like
// SubmitContext.
func (c *Client) SubmitManifestContext(ctx context.Context, kind string, spec *build.Spec, m *cas.Manifest, src cas.Source) (*JobResult, error) {
	jobID := NewJobID()
	root, sampled := c.startJobSpan(jobID, kind)
	ctx = telemetry.ContextWithJobID(ctx, jobID)
	ctx = telemetry.ContextWithSampling(ctx, sampled)
	up := root.Child("upload")
	upCtx := telemetry.ContextWithSpan(ctx, up)

	missing, err := c.Objects.MissingChunks(upCtx, m)
	if err != nil {
		up.End()
		root.End()
		c.Log.Error(upCtx, "manifest negotiation failed", telemetry.L("error", err.Error()))
		return nil, fmt.Errorf("core: negotiating manifest: %w", err)
	}
	sent, err := c.Objects.PutChunks(upCtx, missing, src)
	if err != nil {
		up.End()
		root.End()
		c.Log.Error(upCtx, "chunk upload failed", telemetry.L("error", err.Error()))
		return nil, fmt.Errorf("core: uploading chunks: %w", err)
	}
	enc := m.Encode()
	uploadKey := fmt.Sprintf("%s/%s/project.manifest", c.Creds.UserName, jobID)
	if err := c.Objects.Put(upCtx, BucketUploads, uploadKey, enc, UploadTTL); err != nil {
		up.End()
		root.End()
		c.Log.Error(upCtx, "manifest upload failed", telemetry.L("error", err.Error()))
		return nil, fmt.Errorf("core: uploading manifest: %w", err)
	}
	stats := &TransferStats{
		TotalBytes:  m.TotalBytes,
		SentBytes:   sent + int64(len(enc)),
		ChunksTotal: len(m.ChunkSet()),
		ChunksSent:  len(missing),
	}
	up.SetAttr("bytes", fmt.Sprint(stats.SentBytes))
	up.SetAttr("chunks_sent", fmt.Sprint(stats.ChunksSent))
	up.SetAttr("chunks_total", fmt.Sprint(stats.ChunksTotal))
	up.End()
	c.Telemetry.Counter("rai_client_delta_bytes_total", "bytes sent via delta submission").Add(float64(stats.SentBytes))
	c.Telemetry.Counter("rai_client_delta_saved_bytes_total", "upload bytes avoided by chunk reuse").
		Add(float64(max64(0, stats.TotalBytes-stats.SentBytes)))

	res, err := c.submitUploaded(ctx, root, jobID, kind, spec, BucketUploads, uploadKey)
	if res != nil {
		res.Transfer = stats
	}
	return res, err
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// MissingChunks implements Objects against the in-process engine,
// through the same negotiation the server's /cas/negotiate runs.
func (o LocalObjects) MissingChunks(ctx context.Context, m *cas.Manifest) ([]string, error) {
	return o.S.MissingChunks(ctx, m)
}

// PutChunks implements Objects against the in-process engine; each
// chunk is verified against its hash before it is stored, as the
// server's /cas/chunks does.
func (o LocalObjects) PutChunks(ctx context.Context, hashes []string, src cas.Source) (int64, error) {
	var total int64
	for _, h := range hashes {
		data, err := src.Chunk(h)
		if err != nil {
			return total, err
		}
		if err := o.S.PutChunk(ctx, h, data); err != nil {
			return total, err
		}
		total += int64(len(data))
	}
	return total, nil
}
