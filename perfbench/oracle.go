package main

import (
	"archive/tar"
	"bytes"
	"compress/bzip2"
	"fmt"
	"io"

	"rai/internal/cnn"
	"rai/internal/core"
)

// verifyImages is how many images of a dataset the worker's inference
// checks for correctness (the first ten).
const verifyImages = 10

// oracle knows every submission's right answer: a spec with an injected
// bug fails, a clean one succeeds with the accuracy the reference
// kernel reaches on the same seeded dataset the worker holds.
type oracle struct {
	// accuracy by job kind: run jobs infer on test10, final submissions
	// on testfull (both checked on their first ten images).
	accuracy map[string]float64
}

// newOracle rebuilds the worker's /data volume in process (the same
// cnn.NewNetwork and cnn.SynthesizeDataset calls) and scores it with
// the naive serial kernel.
func newOracle(seed uint64, full int) (*oracle, error) {
	nw := cnn.NewNetwork(seed)
	acc := func(dsSeed uint64, n int) (float64, error) {
		ds, err := cnn.SynthesizeDataset(nw, dsSeed, n)
		if err != nil {
			return 0, err
		}
		k := verifyImages
		if k > ds.Images.N {
			k = ds.Images.N
		}
		imgs := cnn.NewTensor(k, ds.Images.C, ds.Images.H, ds.Images.W)
		copy(imgs.Data, ds.Images.Data[:imgs.Len()])
		return nw.Accuracy(cnn.ImplNaiveSerial, imgs, ds.Labels[:k])
	}
	run, err := acc(seed+1, 10)
	if err != nil {
		return nil, err
	}
	final, err := acc(seed+2, full)
	if err != nil {
		return nil, err
	}
	return &oracle{accuracy: map[string]float64{core.KindRun: run, core.KindSubmit: final}}, nil
}

// outcome is what a student observed for one submission.
type outcome struct {
	status        string
	accuracy      float64
	internalTimer float64
	cached        bool
	archive       []byte // the downloaded /build archive (nil if none)
	err           error  // client-side error: upload, enqueue, timeout, download
}

// check compares an observed outcome with the submission's known
// answer and returns every mismatch. prev is the outcome of the tree's
// previous execution, which an unchanged iterate re-run must replay
// from the build cache.
func (o *oracle) check(sub submission, got outcome, prev *outcome) []string {
	var bad []string
	if got.err != nil {
		return []string{fmt.Sprintf("client error: %v", got.err)}
	}
	want := core.StatusSucceeded
	if sub.spec.Bug != "" {
		want = core.StatusFailed
	}
	if got.status != want {
		bad = append(bad, fmt.Sprintf("status %q, want %q (bug %q)", got.status, want, sub.spec.Bug))
	}
	if want == core.StatusSucceeded && got.status == want {
		if wantAcc := o.accuracy[sub.kind]; got.accuracy != wantAcc {
			bad = append(bad, fmt.Sprintf("accuracy %.4f, want %.4f", got.accuracy, wantAcc))
		}
	}
	switch sub.turn {
	case turnUnchanged:
		if !got.cached {
			bad = append(bad, "unchanged re-run was not answered from the build cache")
		} else if prev != nil && (got.accuracy != prev.accuracy || got.internalTimer != prev.internalTimer) {
			bad = append(bad, fmt.Sprintf("cached result (accuracy %.4f, timer %.4fs) differs from the original run (%.4f, %.4fs)",
				got.accuracy, got.internalTimer, prev.accuracy, prev.internalTimer))
		}
	case turnEdit, turnCold:
		if got.cached {
			bad = append(bad, "a never-built tree was answered from the build cache")
		}
	}
	if got.archive == nil {
		if got.status == core.StatusSucceeded {
			bad = append(bad, "no /build archive advertised")
		}
	} else if err := checkArchive(got.archive); err != nil {
		bad = append(bad, fmt.Sprintf("/build archive: %v", err))
	}
	return bad
}

// checkArchive decodes a /build archive with the standard library's
// bzip2 and tar readers, independently of the program's own codec, and
// requires at least one regular file.
func checkArchive(blob []byte) error {
	tr := tar.NewReader(bzip2.NewReader(bytes.NewReader(blob)))
	files := 0
	for {
		h, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if h.Typeflag == tar.TypeReg {
			n, err := io.Copy(io.Discard, tr)
			if err != nil {
				return err
			}
			if n != h.Size {
				return fmt.Errorf("%s: read %d of %d bytes", h.Name, n, h.Size)
			}
			files++
		}
	}
	if files == 0 {
		return fmt.Errorf("no regular files")
	}
	return nil
}
