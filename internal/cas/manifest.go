package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"

	"rai/internal/vfs"
)

// Magic prefixes every encoded manifest. The worker sniffs it to decide
// whether an upload object is a manifest or a tar.bz2 archive,
// so it must not collide with the bzip2 signature ("BZh").
const Magic = "RAICAS1\n"

// Limits mirroring archivex: a manifest describing more than this is
// rejected before any chunk is fetched.
const (
	MaxFiles         = 100_000
	MaxManifestBytes = 64 << 20
)

// ChunkRef names one chunk of a file.
type ChunkRef struct {
	Hash string `json:"h"`
	Size int64  `json:"s"`
}

// FileEntry is one regular file in the tree, in manifest (path-sorted)
// order. Concatenating its chunks reproduces the file exactly.
type FileEntry struct {
	Path   string     `json:"path"`
	Size   int64      `json:"size"`
	Chunks []ChunkRef `json:"chunks,omitempty"`
}

// Manifest is the content-addressed description of a project tree: the
// submission object that replaces the packed archive when both ends
// speak the delta protocol.
type Manifest struct {
	// TreeHash is the canonical content hash of the whole tree (dirs,
	// paths, and chunk hashes); it keys the worker's build cache.
	TreeHash string `json:"tree_hash"`
	// TotalBytes is the sum of file sizes — what a full upload would
	// have transferred before compression.
	TotalBytes int64 `json:"total_bytes"`
	// Dirs lists every directory under the root (sorted), so empty
	// directories survive the round trip exactly like tar's type-D
	// entries.
	Dirs  []string    `json:"dirs,omitempty"`
	Files []FileEntry `json:"files,omitempty"`
}

// ChunkSet returns the distinct chunk hashes in manifest order.
func (m *Manifest) ChunkSet() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range m.Files {
		for _, c := range f.Chunks {
			if !seen[c.Hash] {
				seen[c.Hash] = true
				out = append(out, c.Hash)
			}
		}
	}
	return out
}

// computeTreeHash derives the canonical tree hash from the manifest's
// dirs, file paths/sizes, and chunk hashes. Chunk boundaries are
// deterministic (fixed gear table), so two trees with identical content
// hash identically no matter where the manifest was built.
func computeTreeHash(m *Manifest) string {
	h := sha256.New()
	for _, d := range m.Dirs {
		_, _ = io.WriteString(h, "D "+d+"\n")
	}
	for _, f := range m.Files {
		_, _ = io.WriteString(h, "F "+f.Path+" "+strconv.FormatInt(f.Size, 10)+"\n")
		for _, c := range f.Chunks {
			_, _ = io.WriteString(h, c.Hash+"\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Seal sorts the manifest canonically and stamps TreeHash.
func (m *Manifest) Seal() {
	sort.Strings(m.Dirs)
	sort.Slice(m.Files, func(i, j int) bool { return m.Files[i].Path < m.Files[j].Path })
	m.TreeHash = computeTreeHash(m)
}

// Encode serializes the manifest with the sniffable magic prefix.
func (m *Manifest) Encode() []byte {
	body, err := json.Marshal(m)
	if err != nil {
		// Manifest contains only strings and integers; Marshal cannot fail.
		panic("cas: encoding manifest: " + err.Error())
	}
	out := make([]byte, 0, len(Magic)+len(body))
	out = append(out, Magic...)
	return append(out, body...)
}

// IsManifest reports whether data begins with the manifest magic. A
// prefix of at least len(Magic) bytes is enough to sniff.
func IsManifest(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// Decode parses and validates an encoded manifest: magic, size caps,
// safe relative paths, and a tree hash that matches the content. A
// manifest that fails here is rejected before any chunk I/O happens.
func Decode(data []byte) (*Manifest, error) {
	if int64(len(data)) > MaxManifestBytes {
		return nil, fmt.Errorf("cas: manifest exceeds %d bytes", int64(MaxManifestBytes))
	}
	if !IsManifest(data) {
		return nil, fmt.Errorf("cas: missing manifest magic")
	}
	var m Manifest
	if err := json.Unmarshal(data[len(Magic):], &m); err != nil {
		return nil, fmt.Errorf("cas: parsing manifest: %w", err)
	}
	if len(m.Files) > MaxFiles {
		return nil, fmt.Errorf("cas: manifest lists %d files (limit %d)", len(m.Files), MaxFiles)
	}
	for _, d := range m.Dirs {
		if err := checkRel(d); err != nil {
			return nil, err
		}
	}
	var total int64
	for _, f := range m.Files {
		if err := checkRel(f.Path); err != nil {
			return nil, err
		}
		var sum int64
		for _, c := range f.Chunks {
			if len(c.Hash) != 64 || c.Size <= 0 {
				return nil, fmt.Errorf("cas: malformed chunk ref %q in %s", c.Hash, f.Path)
			}
			sum += c.Size
		}
		if sum != f.Size {
			return nil, fmt.Errorf("cas: %s: chunk sizes sum to %d, file size %d", f.Path, sum, f.Size)
		}
		total += f.Size
	}
	if total != m.TotalBytes {
		return nil, fmt.Errorf("cas: total bytes %d, files sum to %d", m.TotalBytes, total)
	}
	if got := computeTreeHash(&m); got != m.TreeHash {
		return nil, fmt.Errorf("cas: tree hash mismatch: manifest says %s, content is %s", m.TreeHash, got)
	}
	return &m, nil
}

// checkRel rejects the traversal shapes a hostile manifest could use to
// escape the materialization root (the same guard archivex applies to
// tar member names).
func checkRel(p string) error {
	if p == "" || strings.HasPrefix(p, "/") {
		return fmt.Errorf("cas: unsafe path %q in manifest", p)
	}
	if cp := path.Clean(p); cp != p || cp == ".." || strings.HasPrefix(cp, "../") {
		return fmt.Errorf("cas: unsafe path %q in manifest", p)
	}
	return nil
}

// ---- building ----

// Source yields chunk payloads by hash for upload. Build functions
// return one alongside the manifest; it re-reads the underlying tree on
// demand so no chunk data is pinned in memory.
type Source interface {
	Chunk(hash string) ([]byte, error)
}

type chunkLoc struct {
	path string
	off  int64
	size int64
}

// fsSource re-reads chunks from the tree the manifest was built from,
// checking each against its hash so an edit made after hashing fails
// the upload instead of sending bytes the manifest does not describe.
type fsSource struct {
	fsys fs.FS
	locs map[string]chunkLoc
}

func (s *fsSource) Chunk(hash string) ([]byte, error) {
	loc, ok := s.locs[hash]
	if !ok {
		return nil, fmt.Errorf("cas: unknown chunk %s", hash)
	}
	f, err := s.fsys.Open(loc.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ra, ok := f.(io.ReaderAt)
	if !ok {
		return nil, fmt.Errorf("cas: %s cannot be read at an offset", loc.path)
	}
	buf := make([]byte, loc.size)
	if _, err := ra.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("cas: rereading chunk %s from %s: %w", hash, loc.path, err)
	}
	if HashHex(buf) != hash {
		return nil, fmt.Errorf("cas: %s changed while uploading (chunk %s)", loc.path, hash)
	}
	return buf, nil
}

// chunkFile splits one file's content and records chunk refs + locations.
func chunkFile(rel string, data []byte, locs map[string]chunkLoc) FileEntry {
	fe := FileEntry{Path: rel, Size: int64(len(data))}
	var off int64
	for _, c := range Split(data) {
		h := HashHex(c)
		fe.Chunks = append(fe.Chunks, ChunkRef{Hash: h, Size: int64(len(c))})
		if _, ok := locs[h]; !ok {
			locs[h] = chunkLoc{path: rel, off: off, size: int64(len(c))}
		}
		off += int64(len(c))
	}
	return fe
}

// VCSDir reports whether a directory named name holds version-control
// history (.git, .hg, .svn). Project trees never carry it: the manifest
// builder here and archivex's packer both skip it, so the two
// transports describe the same tree.
func VCSDir(name string) bool { return name == ".git" || name == ".hg" || name == ".svn" }

// BuildDir scans a host directory into a manifest plus a Source for its
// chunks.
func BuildDir(root string) (*Manifest, Source, error) { return build(os.DirFS(root)) }

// BuildVFS scans a virtual-filesystem subtree into a manifest plus a
// Source for its chunks. The worker uses it to hash tar uploads after
// unpacking, so full-archive submissions still hit the build cache.
func BuildVFS(fsys *vfs.FS, root string) (*Manifest, Source, error) { return build(fsys.IOFS(root)) }

// build hashes every directory and regular file under fsys. File
// selection matches archivex's packer (VCS directories skipped, only
// regular files included), so the tree hash agrees with what the worker
// computes after unpacking the equivalent archive.
func build(fsys fs.FS) (*Manifest, Source, error) {
	m := &Manifest{}
	src := &fsSource{fsys: fsys, locs: make(map[string]chunkLoc)}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == "." {
			return err
		}
		if d.IsDir() {
			if VCSDir(d.Name()) {
				return fs.SkipDir
			}
			m.Dirs = append(m.Dirs, p)
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		fe := chunkFile(p, data, src.locs)
		m.Files = append(m.Files, fe)
		m.TotalBytes += fe.Size
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cas: scanning tree: %w", err)
	}
	m.Seal()
	return m, src, nil
}

// ---- materializing ----

// Fetch retrieves one chunk's payload by hash.
type Fetch func(hash string) ([]byte, error)

// materializeCacheBudget bounds the in-memory chunk cache used to
// dedupe fetches while materializing one tree.
const materializeCacheBudget = 32 << 20

// Materialize reconstructs the manifest's tree under root in dst,
// fetching each distinct chunk once (within a bounded cache) and
// verifying every chunk against its hash before it lands. It returns
// the number of chunk fetches and the bytes fetched.
func Materialize(m *Manifest, fetch Fetch, dst *vfs.FS, root string) (fetches int, bytesFetched int64, err error) {
	if err := dst.MkdirAll(root); err != nil {
		return fetches, bytesFetched, err
	}
	for _, d := range m.Dirs {
		if err := dst.MkdirAll(path.Join(root, d)); err != nil {
			return fetches, bytesFetched, err
		}
	}
	cache := make(map[string][]byte)
	var cached int64
	load := func(ref ChunkRef) ([]byte, error) {
		if data, ok := cache[ref.Hash]; ok {
			return data, nil
		}
		data, err := fetch(ref.Hash)
		if err != nil {
			return nil, fmt.Errorf("cas: fetching chunk %s: %w", ref.Hash, err)
		}
		fetches++
		bytesFetched += int64(len(data))
		if int64(len(data)) != ref.Size || HashHex(data) != ref.Hash {
			return nil, fmt.Errorf("cas: chunk %s: fetched %d bytes that hash differently", ref.Hash, len(data))
		}
		if cached+int64(len(data)) <= materializeCacheBudget {
			cache[ref.Hash] = data
			cached += int64(len(data))
		}
		return data, nil
	}
	for _, f := range m.Files {
		buf := bytes.NewBuffer(make([]byte, 0, f.Size))
		for _, ref := range f.Chunks {
			data, err := load(ref)
			if err != nil {
				return fetches, bytesFetched, fmt.Errorf("%s: %w", f.Path, err)
			}
			buf.Write(data)
		}
		if err := dst.WriteFile(path.Join(root, f.Path), buf.Bytes()); err != nil {
			return fetches, bytesFetched, err
		}
	}
	return fetches, bytesFetched, nil
}
