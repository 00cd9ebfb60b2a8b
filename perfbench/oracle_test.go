package main

import (
	"errors"
	"strings"
	"testing"

	"rai/internal/archivex"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/project"
	"rai/internal/vfs"
)

func buildArchive(t *testing.T) []byte {
	t.Helper()
	fs := vfs.New()
	if err := fs.WriteFile("/build/ece408", []byte("binary")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/build/timeline.nvprof", []byte(strings.Repeat("profile ", 100))); err != nil {
		t.Fatal(err)
	}
	blob, err := archivex.PackVFS(fs, "/build")
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func testOracle(t *testing.T) *oracle {
	t.Helper()
	o, err := newOracle(datasetSeed, fullImages)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOracleAcceptsTheKnownAnswer(t *testing.T) {
	o := testOracle(t)
	clean := submission{kind: core.KindRun, spec: project.Spec{Impl: cnn.ImplTiled}, turn: turnCourse}
	got := outcome{status: core.StatusSucceeded, accuracy: o.accuracy[core.KindRun], archive: buildArchive(t)}
	if bad := o.check(clean, got, nil); len(bad) != 0 {
		t.Errorf("correct outcome flagged: %v", bad)
	}
	// A student bug that fails as its spec says is a correct outcome.
	buggy := submission{kind: core.KindRun, spec: project.Spec{Bug: "compile"}, turn: turnCourse}
	if bad := o.check(buggy, outcome{status: core.StatusFailed, archive: buildArchive(t)}, nil); len(bad) != 0 {
		t.Errorf("expected failure flagged: %v", bad)
	}
}

func TestOracleFlagsMismatches(t *testing.T) {
	o := testOracle(t)
	run := submission{kind: core.KindRun, spec: project.Spec{Impl: cnn.ImplIm2col}, turn: turnCourse}
	good := outcome{status: core.StatusSucceeded, accuracy: o.accuracy[core.KindRun], archive: buildArchive(t)}
	corrupt := append([]byte(nil), good.archive...)
	for i := len(corrupt) / 2; i < len(corrupt); i++ {
		corrupt[i] ^= 0x5A
	}
	cases := []struct {
		name string
		sub  submission
		got  outcome
		prev *outcome
		want string
	}{
		{"wrong status", run, outcome{status: core.StatusFailed, archive: good.archive}, nil, "status"},
		{"bug not caught", submission{kind: core.KindRun, spec: project.Spec{Bug: "crash"}, turn: turnCourse}, good, nil, "status"},
		{"wrong accuracy", run, outcome{status: core.StatusSucceeded, accuracy: good.accuracy * 0.62, archive: good.archive}, nil, "accuracy"},
		{"corrupt archive", run, outcome{status: core.StatusSucceeded, accuracy: good.accuracy, archive: corrupt}, nil, "/build archive"},
		{"truncated archive", run, outcome{status: core.StatusSucceeded, accuracy: good.accuracy, archive: good.archive[:len(good.archive)/2]}, nil, "/build archive"},
		{"missing archive", run, outcome{status: core.StatusSucceeded, accuracy: good.accuracy}, nil, "no /build archive"},
		{"client error", run, outcome{err: errors.New("timed out")}, nil, "client error"},
		{"unchanged re-run not cached", submission{kind: core.KindRun, turn: turnUnchanged}, good, &good, "build cache"},
		{"cached result differs", submission{kind: core.KindRun, turn: turnUnchanged},
			outcome{status: core.StatusSucceeded, accuracy: good.accuracy, internalTimer: 2, cached: true, archive: good.archive},
			&outcome{accuracy: good.accuracy, internalTimer: 1}, "differs"},
		{"edited tree cached", submission{kind: core.KindRun, turn: turnEdit},
			outcome{status: core.StatusSucceeded, accuracy: good.accuracy, cached: true, archive: good.archive}, nil, "never-built"},
	}
	for _, c := range cases {
		bad := o.check(c.sub, c.got, c.prev)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "; "), c.want) {
			t.Errorf("%s: problems %v, want one mentioning %q", c.name, bad, c.want)
		}
	}
}

func TestOracleMatchesEveryKernel(t *testing.T) {
	// The reference accuracy is computed with the naive kernel; every
	// optimization level must reach the same answer on the same data.
	nw := cnn.NewNetwork(datasetSeed)
	ds, err := cnn.SynthesizeDataset(nw, datasetSeed+1, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := testOracle(t).accuracy[core.KindRun]
	for _, im := range cnn.Impls {
		got, err := nw.Accuracy(im, ds.Images, ds.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v accuracy %v, oracle %v", im, got, want)
		}
	}
}
