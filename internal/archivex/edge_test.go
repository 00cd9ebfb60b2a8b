package archivex

// Edge-case round trips (DESIGN.md §16): the delta path replaces the
// tar archive with a manifest that the worker materializes, so the two
// transports must reproduce byte-identical trees — otherwise the build
// cache would key the same project differently depending on which wire
// format carried it. These tests feed both paths the awkward shapes
// real student trees produce and assert the cas tree hash (the build
// cache's identity) agrees everywhere.

import (
	"archive/tar"
	"bytes"
	"compress/bzip2"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rai/internal/cas"
	"rai/internal/vfs"
)

// edgeTree renders a project with the shapes that historically break
// archivers: empty directories (alone and nested), zero-byte files,
// deep nesting, names needing escaping in object-store keys, and one
// file wide enough to span several content-defined chunks.
func edgeTree(t *testing.T) *vfs.FS {
	t.Helper()
	f := vfs.New()
	// A fixed clock pins every tar header's mtime, so the packed bytes
	// are a pure function of the tree (TestEdgeTreeBytesPinned).
	f.SetClock(func() time.Time { return time.Unix(1_500_000_000, 0).UTC() })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.WriteFile("/proj/rai-build.yml", []byte("rai:\n  version: 0.1\n")))
	must(f.WriteFile("/proj/zero.bin", nil))
	must(f.WriteFile("/proj/a/b/c/d/e/f/g/h/deep.txt", []byte("bottom of the tree\n")))
	must(f.WriteFile("/proj/src/100% gpu?.cu", []byte("__global__ void k(){}\n")))
	must(f.WriteFile("/proj/src/name with spaces & #hash.h", []byte("#pragma once\n")))
	must(f.WriteFile("/proj/src/odd%2Fname.txt", []byte("percent-encoded slash in the name itself\n")))
	must(f.MkdirAll("/proj/empty"))
	must(f.MkdirAll("/proj/nested/also empty/inner"))
	var w bytes.Buffer
	for i := 0; w.Len() < 4*cas.AvgChunk; i++ {
		fmt.Fprintf(&w, "static const float w%06d = %d.%06de-3f;\n", i, i%97, i*i%999983)
	}
	must(f.WriteFile("/proj/src/weights.h", w.Bytes()))
	return f
}

// vcsTree is a project carrying version-control history at the root
// and in a subdirectory, plus a .gitignore file that is ordinary
// content and must ship.
func vcsTree(t *testing.T) *vfs.FS {
	t.Helper()
	f := vfs.New()
	for p, data := range map[string]string{
		"/proj/main.cu":    "__global__ void k(){}\n",
		"/proj/.gitignore": "build/\n",
		"/proj/.git/HEAD":  "ref: refs/heads/main\n",
		"/proj/sub/a.txt":  "aaa",
		"/proj/sub/.hg/x":  "hg store\n",
	} {
		if err := f.WriteFile(p, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// writeToDisk copies the subtree at root onto a fresh host directory.
func writeToDisk(t *testing.T, f *vfs.FS, root string) string {
	t.Helper()
	dir := t.TempDir()
	err := f.Walk(root, func(p string, fi vfs.FileInfo) error {
		host := filepath.Join(dir, filepath.FromSlash(strings.TrimPrefix(p, root)))
		if fi.Dir {
			return os.MkdirAll(host, 0o755)
		}
		data, err := f.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(host, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// tarEntries lists an archive's entry names in order, directories
// marked with their trailing slash.
func tarEntries(t *testing.T, data []byte) []string {
	t.Helper()
	tr := tar.NewReader(bzip2.NewReader(bytes.NewReader(data)))
	var names []string
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return names
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, hdr.Name)
	}
}

// TestWalkersAgreeOnTrees holds the OS and VFS entry points to one
// tree definition: packing a tree from memory or from disk yields the
// same entries with no VCS history, and hashing it from memory, from
// disk, or after a tar round trip yields the same build-cache key.
func TestWalkersAgreeOnTrees(t *testing.T) {
	for _, tc := range []struct {
		name string
		tree func(*testing.T) *vfs.FS
	}{{"edge", edgeTree}, {"vcs", vcsTree}} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.tree(t)
			dir := writeToDisk(t, f, "/proj")

			fromVFS, err := PackVFS(f, "/proj")
			if err != nil {
				t.Fatal(err)
			}
			fromDir, err := PackDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			vfsNames, dirNames := tarEntries(t, fromVFS), tarEntries(t, fromDir)
			if strings.Join(vfsNames, "\n") != strings.Join(dirNames, "\n") {
				t.Errorf("PackVFS entries %q\nPackDir entries %q", vfsNames, dirNames)
			}
			for _, n := range vfsNames {
				for _, seg := range strings.Split(strings.TrimSuffix(n, "/"), "/") {
					if cas.VCSDir(seg) {
						t.Errorf("archive ships VCS entry %q", n)
					}
				}
			}

			mv, _, err := cas.BuildVFS(f, "/proj")
			if err != nil {
				t.Fatal(err)
			}
			md, _, err := cas.BuildDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			unpacked := vfs.New()
			if err := UnpackVFS(fromVFS, unpacked, "/dst", Limits{}); err != nil {
				t.Fatal(err)
			}
			mu, _, err := cas.BuildVFS(unpacked, "/dst")
			if err != nil {
				t.Fatal(err)
			}
			if md.TreeHash != mv.TreeHash || mu.TreeHash != mv.TreeHash {
				t.Errorf("tree hashes disagree: BuildVFS %s, BuildDir %s, unpack+BuildVFS %s", mv.TreeHash, md.TreeHash, mu.TreeHash)
			}
		})
	}
}

// walkTree flattens a subtree into rel→content for files and rel→nil
// markers for directories, so two trees can be compared exactly.
func walkTree(t *testing.T, f *vfs.FS, root string) (files map[string][]byte, dirs map[string]bool) {
	t.Helper()
	files = make(map[string][]byte)
	dirs = make(map[string]bool)
	err := f.Walk(root, func(p string, fi vfs.FileInfo) error {
		rel := p[len(root):]
		if rel == "" {
			return nil
		}
		if fi.Dir {
			dirs[rel] = true
			return nil
		}
		data, err := f.ReadFile(p)
		if err != nil {
			return err
		}
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, dirs
}

func assertSameTree(t *testing.T, want, got *vfs.FS, wantRoot, gotRoot string) {
	t.Helper()
	wf, wd := walkTree(t, want, wantRoot)
	gf, gd := walkTree(t, got, gotRoot)
	for rel, data := range wf {
		other, ok := gf[rel]
		if !ok {
			t.Errorf("file %q missing after round trip", rel)
			continue
		}
		if !bytes.Equal(data, other) {
			t.Errorf("file %q content mismatch: %d bytes vs %d", rel, len(data), len(other))
		}
	}
	for rel := range gf {
		if _, ok := wf[rel]; !ok {
			t.Errorf("unexpected extra file %q after round trip", rel)
		}
	}
	for rel := range wd {
		if !gd[rel] {
			t.Errorf("directory %q missing after round trip", rel)
		}
	}
	for rel := range gd {
		if !wd[rel] {
			t.Errorf("unexpected extra directory %q after round trip", rel)
		}
	}
}

// TestPackUnpackEdgeTree proves the tar transport reproduces the edge
// tree exactly: every byte, every empty directory, nothing extra.
func TestPackUnpackEdgeTree(t *testing.T) {
	f := edgeTree(t)
	data, err := PackVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	out := vfs.New()
	if err := UnpackVFS(data, out, "/dst", Limits{}); err != nil {
		t.Fatal(err)
	}
	assertSameTree(t, f, out, "/proj", "/dst")
}

// TestEdgeTreeHashStableAcrossTransports is the identity guarantee the
// warm build cache leans on: the cas tree hash of the original tree,
// of the tar round trip, and of the manifest materialization must all
// agree, or identical submissions would miss the cache depending on
// how they traveled.
func TestEdgeTreeHashStableAcrossTransports(t *testing.T) {
	f := edgeTree(t)
	m, src, err := cas.BuildVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}

	// Tar round trip.
	data, err := PackVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	tarred := vfs.New()
	if err := UnpackVFS(data, tarred, "/dst", Limits{}); err != nil {
		t.Fatal(err)
	}
	mt, _, err := cas.BuildVFS(tarred, "/dst")
	if err != nil {
		t.Fatal(err)
	}
	if mt.TreeHash != m.TreeHash {
		t.Errorf("tar round trip changed tree hash: %s vs %s", mt.TreeHash, m.TreeHash)
	}

	// Manifest materialization, fetching chunks from the source tree.
	mat := vfs.New()
	if _, _, err := cas.Materialize(m, src.Chunk, mat, "/dst"); err != nil {
		t.Fatal(err)
	}
	mm, _, err := cas.BuildVFS(mat, "/dst")
	if err != nil {
		t.Fatal(err)
	}
	if mm.TreeHash != m.TreeHash {
		t.Errorf("materialization changed tree hash: %s vs %s", mm.TreeHash, m.TreeHash)
	}
	assertSameTree(t, f, mat, "/proj", "/dst")
}

// TestMaterializedTreeMatchesUnpackedArchive closes the loop from the
// worker's point of view: unpack-the-tar and materialize-the-manifest
// must hand the sandbox the same /src, byte for byte.
func TestMaterializedTreeMatchesUnpackedArchive(t *testing.T) {
	f := edgeTree(t)
	m, src, err := cas.BuildVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	data, err := PackVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	tarred := vfs.New()
	if err := UnpackVFS(data, tarred, "/src", Limits{}); err != nil {
		t.Fatal(err)
	}
	mat := vfs.New()
	if _, _, err := cas.Materialize(m, src.Chunk, mat, "/src"); err != nil {
		t.Fatal(err)
	}
	assertSameTree(t, tarred, mat, "/src", "/src")
}

// TestEdgeTreeBytesPinned pins the exact bytes both transports put on
// the wire for a fixed tree: the .tar.bz2 archive, the manifest
// encoding, and the tree hash that keys the build cache. A refactor of
// the walkers that reorders entries, changes a header field or drifts
// a chunk boundary shows up here before it changes upload sizes or
// invalidates every warm cache entry.
func TestEdgeTreeBytesPinned(t *testing.T) {
	f := edgeTree(t)
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	archive, err := PackVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := cas.BuildVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"PackVFS sha256", sum(archive), "aa80e3b92e8de056015abba317cc2bdf3344a0e977447b74c3baca80c834e180"},
		{"TreeHash", m.TreeHash, "951f2b8011bf4ecdcbaacc8e0b00e41a331b2eb0cc4b3944b80d5dd44ca7c961"},
		{"Manifest.Encode sha256", sum(m.Encode()), "c315d349a23bb4b90ec8628213c6c67d45edfff7c10860c5f921c01927b4ffcd"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}
