// Package data is the training-scale ingestion subsystem: sharded TFRecord
// datasets described by a manifest, streamed to the trainer at its demand
// rate by a Loader that overlaps disk reads and parallel sample decode with
// compute, with deterministic per-epoch shard shuffling and rank-disjoint
// shard assignment so distributed runs stay bit-identical and
// resume-correct. Shards come from a local directory (DirSource) or over
// HTTP from a cosmoflow-shardd server (HTTPSource) — the Go analogue of
// the paper's burst-buffer staging (§VI-A), where every rank streams its
// disjoint shard set from fast storage instead of hammering the shared
// filesystem.
package data

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/tfrecord"
)

// ManifestSchema identifies the manifest layout; bump on incompatible
// change so mismatched loaders refuse the file instead of misreading it.
const ManifestSchema = "cosmoflow-manifest/v1"

// ManifestName is the manifest's filename within a dataset directory.
const ManifestName = "manifest.json"

// Shard describes one TFRecord file of a split: enough for a loader to
// plan an epoch (sample counts), fetch remotely (sizes), and distrust torn
// or corrupted copies (whole-file checksum).
type Shard struct {
	File    string `json:"file"` // basename within the dataset directory
	Samples int    `json:"samples"`
	Bytes   int64  `json:"bytes"`
	CRC32C  uint32 `json:"crc32c"` // Castagnoli over the whole file
}

// Manifest is the dataset's table of contents, written next to the shards
// by cosmoflow-datagen (or Scan, for datasets that predate manifests).
type Manifest struct {
	Schema string             `json:"schema"`
	Dim    int                `json:"dim"`    // voxel edge length of every sample
	Splits map[string][]Shard `json:"splits"` // split name → shards in file order
}

// Split returns a split's shards, nil if absent.
func (m *Manifest) Split(name string) []Shard { return m.Splits[name] }

// TotalSamples sums a split's per-shard sample counts.
func (m *Manifest) TotalSamples(split string) int {
	n := 0
	for _, s := range m.Splits[split] {
		n += s.Samples
	}
	return n
}

// Validate checks schema and internal consistency.
func (m *Manifest) Validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("data: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Dim < 1 || m.Dim > tfrecord.MaxSampleDim {
		return fmt.Errorf("data: manifest dim %d outside [1, %d]", m.Dim, tfrecord.MaxSampleDim)
	}
	for split, shards := range m.Splits {
		for _, s := range shards {
			if !bareFilename(s.File) {
				return fmt.Errorf("data: split %s shard file %q must be a bare filename", split, s.File)
			}
			if s.Samples < 1 {
				return fmt.Errorf("data: split %s shard %s claims %d samples", split, s.File, s.Samples)
			}
			if s.Bytes < 0 {
				return fmt.Errorf("data: split %s shard %s claims %d bytes", split, s.File, s.Bytes)
			}
		}
	}
	return nil
}

// bareFilename reports whether name is a file directly inside a dataset
// directory: non-empty, no separator, and not "." or "..".
func bareFilename(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsRune(name, filepath.Separator)
}

// WriteManifest writes the manifest atomically (temp file + rename) into
// dir, so a killed writer never leaves a torn manifest a loader would
// trust.
func WriteManifest(dir string, m *Manifest) (err error) {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ManifestName+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(append(data, '\n')); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, ManifestName))
}

// ParseManifest decodes and validates manifest JSON.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("data: parsing manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadManifest reads dir's manifest file.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return ParseManifest(data)
}

// Scan builds a manifest by reading every <split>-*.tfrecord under dir for
// the given split prefixes (counting samples, checksumming bytes). It is
// how cosmoflow-datagen emits its manifest — a full read-back, so the
// manifest vouches for what landed on disk, not what was meant to — and
// how datasets written before manifests existed adopt one.
func Scan(dir string, splits ...string) (*Manifest, error) {
	m := &Manifest{Schema: ManifestSchema, Splits: map[string][]Shard{}}
	for _, split := range splits {
		paths, err := filepath.Glob(filepath.Join(dir, split+"-*.tfrecord"))
		if err != nil {
			return nil, err
		}
		sort.Strings(paths)
		for _, p := range paths {
			sh, dim, err := scanShard(p)
			if err != nil {
				return nil, fmt.Errorf("data: scanning %s: %w", p, err)
			}
			if m.Dim == 0 {
				m.Dim = dim
			} else if dim != m.Dim {
				return nil, fmt.Errorf("data: %s holds dim-%d samples, dataset is dim %d", p, dim, m.Dim)
			}
			m.Splits[split] = append(m.Splits[split], sh)
		}
		if len(m.Splits[split]) == 0 {
			delete(m.Splits, split)
		}
	}
	if len(m.Splits) == 0 {
		return nil, fmt.Errorf("data: no TFRecord shards under %s for splits %v", dir, splits)
	}
	return m, nil
}

// scanShard streams one shard, returning its manifest entry and sample dim.
func scanShard(path string) (Shard, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return Shard{}, 0, err
	}
	defer f.Close()
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	counting := &countingReader{r: io.TeeReader(f, crc)}
	sr := tfrecord.NewSampleReader(counting)
	sh := Shard{File: filepath.Base(path)}
	dim := 0
	for {
		s, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Shard{}, 0, err
		}
		if dim == 0 {
			dim = s.Dim
		} else if s.Dim != dim {
			return Shard{}, 0, fmt.Errorf("data: mixed sample dims %d and %d", dim, s.Dim)
		}
		sh.Samples++
	}
	if sh.Samples == 0 {
		return Shard{}, 0, fmt.Errorf("data: shard holds no samples")
	}
	sh.Bytes = counting.n
	sh.CRC32C = crc.Sum32()
	return sh, dim, nil
}

// countingReader counts bytes delivered by the underlying reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
