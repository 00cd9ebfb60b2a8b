package objstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"rai/internal/cas"
	"rai/internal/netx"
	"rai/internal/telemetry"
)

// Delta resubmission endpoints (DESIGN.md §16). The negotiation is one
// round trip:
//
//	POST /cas/negotiate   body = encoded manifest
//	                      → {"missing":[hash...]}   (chunks the server lacks)
//	POST /cas/chunks      body = frames: "<hash> <size>\n" + raw bytes
//	                      → {"stored":n,"bytes":b}
//
// Present chunks get their TTL refreshed during negotiation, so a chunk
// shared by active submissions never expires under them; the sweep that
// ages out rai-uploads ages rai-cas the same way. Both endpoints are
// auth-gated exactly like /o/ — manifests reveal tree shape, and chunk
// existence is an oracle, so neither is anonymous.

// casNegotiateResponse is the body of a successful negotiation.
type casNegotiateResponse struct {
	Missing []string `json:"missing"`
}

// casChunksResponse acknowledges a chunk upload stream.
type casChunksResponse struct {
	Stored int   `json:"stored"`
	Bytes  int64 `json:"bytes"`
}

// casOp labels /cas/ requests for the shared request metrics.
func casOp(r *http.Request) string {
	if strings.HasSuffix(r.URL.Path, "/negotiate") {
		return "cas-negotiate"
	}
	return "cas-chunks"
}

// ErrChunkMismatch reports a chunk whose payload does not hash to the
// name it was sent under.
var ErrChunkMismatch = errors.New("objstore: chunk payload hashes differently")

// MissingChunks returns the manifest's chunks the store lacks. Each
// present chunk is found by one Touch, which refreshes its last-use in
// the same step: a chunk shared across submissions outlives the TTL
// clock of its first upload, and a chunk reported present cannot expire
// between the lookup and the refresh.
func (s *Store) MissingChunks(ctx context.Context, m *cas.Manifest) ([]string, error) {
	missing := []string{}
	for _, hash := range m.ChunkSet() {
		err := s.Touch(ctx, cas.Bucket, cas.ChunkKey(hash))
		switch {
		case err == nil:
		case errors.Is(err, ErrNoObject), errors.Is(err, ErrNoBucket):
			missing = append(missing, hash)
		default:
			return nil, err
		}
	}
	return missing, nil
}

// PutChunk stores one chunk under its hash after verifying the payload
// against it, so an unverified chunk never becomes addressable.
func (s *Store) PutChunk(ctx context.Context, hash string, data []byte) error {
	if cas.HashHex(data) != hash {
		return fmt.Errorf("%w: %s", ErrChunkMismatch, hash)
	}
	_, err := s.Put(ctx, cas.Bucket, cas.ChunkKey(hash), data, 0)
	return err
}

// handleCASNegotiate answers a manifest with the chunk hashes the store
// is missing, refreshing the TTL of every chunk it already holds.
func (h *handlerState) handleCASNegotiate(s *Store, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, cas.MaxManifestBytes+1))
	if err != nil {
		http.Error(w, "reading manifest: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > cas.MaxManifestBytes {
		http.Error(w, "manifest too large", http.StatusRequestEntityTooLarge)
		return
	}
	m, err := cas.Decode(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	missing, err := s.MissingChunks(r.Context(), m)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	present := make(map[string]int64)
	for _, f := range m.Files {
		for _, c := range f.Chunks {
			present[c.Hash] = c.Size
		}
	}
	for _, hash := range missing {
		delete(present, hash)
	}
	var saved int64
	for _, size := range present {
		saved += size
	}
	h.casHits.Add(float64(len(present)))
	h.casMisses.Add(float64(len(missing)))
	h.casSavedBytes.Add(float64(saved))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(casNegotiateResponse{Missing: missing})
}

// handleCASChunks ingests a framed chunk stream, verifying each payload
// against its declared hash before it becomes addressable.
func (h *handlerState) handleCASChunks(s *Store, w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReader(http.MaxBytesReader(w, r.Body, h.maxBytes))
	var resp casChunksResponse
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF && line == "" {
			break
		}
		if err != nil {
			http.Error(w, "reading chunk frame: "+err.Error(), http.StatusBadRequest)
			return
		}
		hash, sizeStr, ok := strings.Cut(strings.TrimSuffix(line, "\n"), " ")
		size, perr := strconv.ParseInt(sizeStr, 10, 64)
		if !ok || len(hash) != 64 || perr != nil || size <= 0 || size > cas.MaxChunk {
			http.Error(w, fmt.Sprintf("bad chunk frame %q", strings.TrimSpace(line)), http.StatusBadRequest)
			return
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(br, buf); err != nil {
			http.Error(w, "short chunk payload: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.PutChunk(r.Context(), hash, buf); err != nil {
			writeStoreErr(w, err)
			return
		}
		h.streamIn.Add(float64(size))
		h.casStored.Inc()
		h.casStoredBytes.Add(float64(size))
		resp.Stored++
		resp.Bytes += size
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// ---- client side ----

// MissingChunks negotiates a manifest: the returned hashes are the
// chunks the server does not yet hold.
func (c *Client) MissingChunks(ctx context.Context, m *cas.Manifest) ([]string, error) {
	enc := m.Encode()
	var resp casNegotiateResponse
	err := c.roundTrip(ctx, "cas-negotiate", http.StatusOK, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/cas/negotiate", bytes.NewReader(enc))
		if err != nil {
			return nil, err
		}
		req.ContentLength = int64(len(enc))
		return req, nil
	}, func(r *http.Response) error {
		resp = casNegotiateResponse{}
		return json.NewDecoder(r.Body).Decode(&resp)
	})
	if err != nil {
		return nil, err
	}
	return resp.Missing, nil
}

// PutChunks streams the named chunks (fetched from src as the stream
// advances, so nothing is pinned in memory) and returns the payload
// bytes that went over the wire. Each retry attempt rebuilds the stream
// from src, so the full retry policy applies.
func (c *Client) PutChunks(ctx context.Context, hashes []string, src cas.Source) (int64, error) {
	if len(hashes) == 0 {
		return 0, nil
	}
	var resp casChunksResponse
	err := c.roundTrip(ctx, "cas-chunks", http.StatusOK, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/cas/chunks", io.NopCloser(&chunkStream{src: src, hashes: hashes}))
	}, func(r *http.Response) error {
		resp = casChunksResponse{}
		return json.NewDecoder(r.Body).Decode(&resp)
	})
	if err != nil {
		return 0, err
	}
	return resp.Bytes, nil
}

// chunkStream frames chunks lazily: each Read pulls at most one chunk
// from the source, so memory stays O(MaxChunk) however large the tree.
type chunkStream struct {
	src    cas.Source
	hashes []string
	i      int
	buf    bytes.Buffer
}

func (cs *chunkStream) Read(p []byte) (int, error) {
	for cs.buf.Len() == 0 {
		if cs.i >= len(cs.hashes) {
			return 0, io.EOF
		}
		hash := cs.hashes[cs.i]
		cs.i++
		data, err := cs.src.Chunk(hash)
		if err != nil {
			// The tree changed under the upload; a retry would rebuild the
			// stream and fail identically, so mark it permanent.
			return 0, netx.Permanent(err)
		}
		fmt.Fprintf(&cs.buf, "%s %d\n", hash, len(data))
		cs.buf.Write(data)
	}
	return cs.buf.Read(p)
}

// registerCASMetrics wires the rai_cas_* counters; absent telemetry they
// stay nil-safe no-ops like the rest of the handler counters.
func (h *handlerState) registerCASMetrics(reg *telemetry.Registry) {
	h.casHits = reg.Counter("rai_cas_chunk_hits_total", "negotiated chunks already present (deduplicated)")
	h.casMisses = reg.Counter("rai_cas_chunk_misses_total", "negotiated chunks the client had to upload")
	h.casSavedBytes = reg.Counter("rai_cas_saved_bytes_total", "upload bytes avoided by chunk reuse")
	h.casStored = reg.Counter("rai_cas_chunks_stored_total", "chunks ingested into the store")
	h.casStoredBytes = reg.Counter("rai_cas_stored_bytes_total", "chunk payload bytes ingested into the store")
}
