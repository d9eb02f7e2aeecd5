package tfrecord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/cosmo"
)

// sampleMagic identifies the CosmoFlow sample payload encoding, version 1.
const sampleMagic = 0x43465331 // "CFS1"

// MaxSampleDim bounds a sample's voxel edge length wherever it is read
// from untrusted bytes (a record payload, a dataset manifest). It leaves
// room above the paper's 512³ simulation boxes while keeping dim³ far
// from int overflow, so a hostile dim cannot wrap the voxel count.
const MaxSampleDim = 1024

// EncodeSample serializes a sample into a record payload: magic, dim, dim³
// float32 voxels, 3 float32 targets, all little-endian.
func EncodeSample(s *cosmo.Sample) []byte {
	n := len(s.Voxels)
	buf := make([]byte, 8+4*n+12)
	binary.LittleEndian.PutUint32(buf[0:4], sampleMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(s.Dim))
	off := 8
	for _, v := range s.Voxels {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	for _, v := range s.Target {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	return buf
}

// DecodeSample parses a record payload produced by EncodeSample.
func DecodeSample(buf []byte) (*cosmo.Sample, error) {
	return DecodeSampleInto(buf, nil)
}

// DecodeSampleInto is DecodeSample decoding the voxels into the provided
// slice when it has exactly the right length (otherwise a fresh slice is
// allocated, as DecodeSample does). Every element is overwritten, so
// recycled scratch (e.g. from a tensor.BufPool) needs no clearing.
func DecodeSampleInto(buf []byte, voxels []float32) (*cosmo.Sample, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("tfrecord: sample payload too short (%d bytes)", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != sampleMagic {
		return nil, fmt.Errorf("tfrecord: bad sample magic %#x", binary.LittleEndian.Uint32(buf[0:4]))
	}
	dim := int(binary.LittleEndian.Uint32(buf[4:8]))
	if dim < 1 || dim > MaxSampleDim {
		return nil, fmt.Errorf("tfrecord: sample dim %d outside [1, %d]", dim, MaxSampleDim)
	}
	n := dim * dim * dim
	want := 8 + 4*n + 12
	if len(buf) != want {
		return nil, fmt.Errorf("tfrecord: sample payload is %d bytes, want %d for dim %d", len(buf), want, dim)
	}
	if len(voxels) != n {
		voxels = make([]float32, n)
	}
	s := &cosmo.Sample{Dim: dim, Voxels: voxels}
	off := 8
	for i := 0; i < n; i++ {
		s.Voxels[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	for i := 0; i < 3; i++ {
		s.Target[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	return s, nil
}

// SamplesPerFile is the paper's TFRecord packing: 64 samples per file
// (§IV-C, 512 MB files of 8 MB samples).
const SamplesPerFile = 64

// WriteDataset writes samples into numbered TFRecord files under dir with
// the given name prefix, perFile samples per file (the last file may be
// short). It returns the file paths in order.
func WriteDataset(dir, prefix string, samples []*cosmo.Sample, perFile int) ([]string, error) {
	if perFile <= 0 {
		perFile = SamplesPerFile
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for start := 0; start < len(samples); start += perFile {
		end := start + perFile
		if end > len(samples) {
			end = len(samples)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%05d.tfrecord", prefix, len(paths)))
		if err := WriteSamplesFile(path, samples[start:end]); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// WriteSamplesFile writes the samples to a single TFRecord file, staging
// through a temp file in the same directory and renaming into place, so a
// killed writer leaves no torn shard under the final name for a later
// loader to trust.
func WriteSamplesFile(path string, samples []*cosmo.Sample) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := NewWriter(tmp)
	for _, s := range samples {
		if err = w.WriteRecord(EncodeSample(s)); err != nil {
			return err
		}
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadSplit reads every sample from the <prefix>-*.tfrecord files under
// dir, in file order — the loader counterpart of WriteDataset. It holds
// the whole split in memory, so it suits validation/test sets and small
// experiments; training-scale ingestion should stream through a
// data.Loader (or SampleReader) instead.
func ReadSplit(dir, prefix string) ([]*cosmo.Sample, error) {
	paths, err := filepath.Glob(filepath.Join(dir, prefix+"-*.tfrecord"))
	if err != nil {
		return nil, err
	}
	var out []*cosmo.Sample
	for _, p := range paths {
		ss, err := ReadSamplesFile(p)
		if err != nil {
			return nil, fmt.Errorf("tfrecord: reading %s: %w", p, err)
		}
		out = append(out, ss...)
	}
	return out, nil
}

// ReadSamplesFile reads every sample from a TFRecord file.
func ReadSamplesFile(path string) ([]*cosmo.Sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var samples []*cosmo.Sample
	sr := NewSampleReader(f)
	for {
		s, err := sr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		samples = append(samples, s)
	}
	return samples, nil
}
