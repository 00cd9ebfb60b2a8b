package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/cnn"
	"rai/internal/project"
	"rai/internal/vfs"
)

// projectTree renders a project into a fresh vfs — padded with a
// deterministic multi-chunk weights file so the tree is big enough for
// delta ratios to mean something — and returns its manifest and chunk
// source (the delta client's view of the tree).
func projectTree(t *testing.T, spec project.Spec) (*vfs.FS, *cas.Manifest, cas.Source) {
	t.Helper()
	fs := vfs.New()
	if err := project.WriteTo(fs, "/p", spec); err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	for i := 0; w.Len() < 4*cas.AvgChunk; i++ {
		fmt.Fprintf(&w, "static const float w%06d = %d.%06de-3f;\n", i, i%97, i*i%999983)
	}
	if err := fs.WriteFile("/p/src/weights.h", w.Bytes()); err != nil {
		t.Fatal(err)
	}
	m, src, err := cas.BuildVFS(fs, "/p")
	if err != nil {
		t.Fatal(err)
	}
	return fs, m, src
}

// submitManifestAndHandle runs a delta submission concurrently with one
// worker handling.
func submitManifestAndHandle(t *testing.T, e *env, c *Client, kind string, spec *build.Spec, m *cas.Manifest, src cas.Source) (*JobResult, error) {
	t.Helper()
	type out struct {
		res *JobResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.SubmitManifestContext(context.Background(), kind, spec, m, src)
		done <- out{res, err}
	}()
	if _, err := e.worker.HandleOne(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(10 * time.Second):
		t.Fatal("client did not finish")
		return nil, nil
	}
}

// TestDeltaSubmitEndToEnd is the tentpole's acceptance path: first
// submission uploads every chunk, the identical resubmission moves
// almost nothing and is answered from the warm build cache.
func TestDeltaSubmitEndToEnd(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-delta")
	var termOut bytes.Buffer
	c.Stdout = &termOut

	_, m1, src1 := projectTree(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-delta"})
	res, err := submitManifestAndHandle(t, e, c, KindRun, build.Default(), m1, src1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSucceeded || res.Accuracy != 1.0 {
		t.Fatalf("first submit: %+v", res)
	}
	if res.CachedBuild {
		t.Fatal("first submit claims a cache hit")
	}
	if res.Transfer == nil {
		t.Fatal("delta submit returned no transfer stats")
	}
	if res.Transfer.ChunksSent != res.Transfer.ChunksTotal || res.Transfer.ChunksSent == 0 {
		t.Fatalf("first submit sent %d of %d chunks", res.Transfer.ChunksSent, res.Transfer.ChunksTotal)
	}
	firstSent := res.Transfer.SentBytes

	// Identical tree, 60 virtual seconds later (past the rate limit):
	// nothing but the manifest travels, and the worker replays the
	// cached build instead of running the container.
	e.clock.Advance(time.Minute)
	_, m2, src2 := projectTree(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-delta"})
	if m2.TreeHash != m1.TreeHash {
		t.Fatalf("identical tree hashed differently: %s vs %s", m2.TreeHash, m1.TreeHash)
	}
	res2, err := submitManifestAndHandle(t, e, c, KindRun, build.Default(), m2, src2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != StatusSucceeded || res2.Accuracy != 1.0 {
		t.Fatalf("resubmit: %+v", res2)
	}
	if res2.Transfer.ChunksSent != 0 {
		t.Errorf("resubmit re-uploaded %d chunks", res2.Transfer.ChunksSent)
	}
	if 20*res2.Transfer.SentBytes > firstSent {
		t.Errorf("resubmit sent %d bytes, first sent %d — wanted ≥95%% reduction", res2.Transfer.SentBytes, firstSent)
	}
	if !res2.CachedBuild {
		t.Error("identical-input resubmission did not hit the build cache")
	}
	if !strings.Contains(termOut.String(), "build cache hit") {
		t.Error("cache hit not announced on the job log")
	}

	// An edited tree misses the cache and executes for real.
	e.clock.Advance(time.Minute)
	fs3, _, _ := projectTree(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-delta"})
	if err := fs3.WriteFile("/p/src/tuning.h", []byte("#define TILE_WIDTH 32\n")); err != nil {
		t.Fatal(err)
	}
	m3, src3, err := cas.BuildVFS(fs3, "/p")
	if err != nil {
		t.Fatal(err)
	}
	res3, err := submitManifestAndHandle(t, e, c, KindRun, build.Default(), m3, src3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.CachedBuild {
		t.Error("edited tree reported a cache hit")
	}
	if res3.Transfer.ChunksSent == 0 || res3.Transfer.ChunksSent == res3.Transfer.ChunksTotal {
		t.Errorf("one-file edit sent %d of %d chunks — expected a partial delta",
			res3.Transfer.ChunksSent, res3.Transfer.ChunksTotal)
	}
}

// TestLegacyArchiveSharesBuildCache is old-client↔new-server interop:
// a plain tar.bz2 upload still executes — and its tree hash (computed
// after unpack) shares the warm build cache with everyone else.
func TestLegacyArchiveSharesBuildCache(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-legacy")
	archive := packProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-legacy"})

	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), archive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSucceeded || res.CachedBuild {
		t.Fatalf("first archive submit: %+v", res)
	}
	if res.Transfer != nil {
		t.Error("full-archive upload reported delta transfer stats")
	}

	e.clock.Advance(time.Minute)
	res2, err := submitAndHandle(t, e, c, KindRun, build.Default(), archive)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != StatusSucceeded {
		t.Fatalf("second archive submit: %+v", res2)
	}
	if !res2.CachedBuild {
		t.Error("identical archive resubmission did not hit the build cache")
	}
	if res2.Accuracy != res.Accuracy || res2.InternalTimer != res.InternalTimer {
		t.Errorf("cached replay drifted: %+v vs %+v", res2, res)
	}
}

// TestSubmissionsNeverCached: final submissions always execute, even
// with a warm cache entry for the exact tree, because their results
// land on the ranking board.
func TestSubmissionsNeverCached(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-final")
	archive := packProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-final", WithUsage: true, WithReport: true})

	res, err := submitAndHandle(t, e, c, KindSubmit, nil, archive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSucceeded || res.CachedBuild {
		t.Fatalf("first final submit: %+v", res)
	}
	e.clock.Advance(time.Minute)
	res2, err := submitAndHandle(t, e, c, KindSubmit, nil, archive)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CachedBuild {
		t.Error("final submission was answered from the build cache")
	}
}
