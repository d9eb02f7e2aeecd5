// Command cosmoflow-datagen generates a synthetic CosmoFlow dataset — the
// Go analogue of the paper's MUSIC + pycola simulation campaign (§IV-C) —
// and writes it as TFRecord files, 64 samples per file.
//
// Usage:
//
//	cosmoflow-datagen -out data/ -sims 40 -ngrid 64 -val 4 -test 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cosmo"
	"repro/internal/data"
	"repro/internal/tfrecord"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmoflow-datagen: ")

	out := flag.String("out", "data", "output directory")
	sims := flag.Int("sims", 20, "number of simulated universes (each yields 8 sub-volumes)")
	valSims := flag.Int("val", 2, "simulations held out for validation")
	testSims := flag.Int("test", 1, "simulations held out for testing")
	ngrid := flag.Int("ngrid", 64, "particles per dimension (power of two; paper: 512)")
	box := flag.Float64("box", 0, "box side in Mpc/h (0 keeps 2 Mpc/h voxels)")
	perFile := flag.Int("per-file", tfrecord.SamplesPerFile, "samples per TFRecord file")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	start := time.Now()
	if *box == 0 {
		*box = 2 * float64(*ngrid) // 2 h⁻¹Mpc voxels, as in §IV-C
	}
	sim := cosmo.SimConfig{NGrid: *ngrid, BoxSize: *box, Priors: cosmo.DefaultPriors()}
	ds, err := cosmo.BuildDataset(sim, *sims, *valSims, *testSims, *seed)
	if err != nil {
		log.Fatal(err)
	}

	write := func(prefix string, samples []*cosmo.Sample) {
		if len(samples) == 0 {
			return
		}
		paths, err := tfrecord.WriteDataset(*out, prefix, samples, *perFile)
		if err != nil {
			log.Fatal(err)
		}
		var bytes int64
		for _, p := range paths {
			if fi, err := os.Stat(p); err == nil {
				bytes += fi.Size()
			}
		}
		fmt.Printf("%-6s %6d samples in %3d files (%.1f MB)\n",
			prefix, len(samples), len(paths), float64(bytes)/1e6)
	}
	write("train", ds.Train)
	write("val", ds.Val)
	write("test", ds.Test)

	// The manifest (per-shard sample counts and checksums) is what
	// data.Loader and cosmoflow-shardd trust; scanning the files we just
	// wrote also re-verifies every record's framing end to end.
	m, err := data.Scan(*out, "train", "val", "test")
	if err != nil {
		log.Fatal(err)
	}
	if err := data.WriteManifest(*out, m); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmanifest: %d train shards, %d total samples, dim %d (%s)\n",
		len(m.Split("train")), m.TotalSamples("train"), m.Dim,
		filepath.Join(*out, data.ManifestName))

	dim := ds.Config.SubVolumeDim()
	fmt.Printf("\nsub-volume size: %d³ voxels (paper: 128³)\n", dim)
	fmt.Printf("generated %d simulations in %v → %s\n",
		*sims, time.Since(start).Round(time.Millisecond), filepath.Clean(*out))
}
