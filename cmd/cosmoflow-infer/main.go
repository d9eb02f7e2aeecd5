// Command cosmoflow-infer loads a trained checkpoint and predicts
// cosmological parameters for a TFRecord test split — the Figure-6
// inference step as a standalone tool.
//
// Local (in-process) scoring:
//
//	cosmoflow-infer -ckpt model.ckpt -data data/ -base 4
//
// Remote scoring sends the same split to a running cosmoflow-serve
// daemon through the typed v1 client, over either wire encoding:
//
//	cosmoflow-infer -addr http://localhost:8080 -data data/ -wire binary
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/serve/client"
	"repro/internal/tfrecord"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmoflow-infer: ")

	ckpt := flag.String("ckpt", "", "checkpoint file written by the trainer (local mode)")
	addr := flag.String("addr", "", "cosmoflow-serve base URL (remote mode; replaces -ckpt)")
	model := flag.String("model", "", "remote model name (empty: server default)")
	wireFlag := flag.String("wire", "binary", "remote request encoding: json or binary")
	dataDir := flag.String("data", "", "TFRecord dataset directory")
	split := flag.String("split", "test", "split prefix to score (test or val)")
	base := flag.Int("base", 4, "base channel count the checkpoint was trained with")
	channels := flag.Int("channels", 1, "input channels the checkpoint was trained with")
	limit := flag.Int("limit", 16, "maximum samples to print (0 = all)")
	flag.Parse()
	if (*ckpt == "") == (*addr == "") || *dataDir == "" {
		log.Fatal("provide -data DIR and exactly one of -ckpt FILE (local) or -addr URL (remote)")
	}

	samples, err := tfrecord.ReadSplit(*dataDir, *split)
	if err != nil {
		log.Fatal(err)
	}
	if len(samples) == 0 {
		log.Fatalf("no %s-*.tfrecord files in %s", *split, *dataDir)
	}

	priors := cosmo.DefaultPriors()
	var ests []train.Estimate
	if *addr != "" {
		ests, err = remoteEvaluate(*addr, *model, *wireFlag, samples, priors)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		net, err := nn.BuildCosmoFlow(nn.TopologyConfig{
			InputDim:      samples[0].Dim,
			InputChannels: *channels,
			BaseChannels:  *base,
			Seed:          1,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := net.LoadCheckpointFile(*ckpt); err != nil {
			log.Fatal(err)
		}
		want := net.InputShape()
		for i, s := range samples {
			if s.NumChannels() != want[0] || s.Dim != want[1] {
				log.Fatalf("%s sample %d has %d channel(s) at dim %d; the network expects %d at dim %d",
					*split, i, s.NumChannels(), s.Dim, want[0], want[1])
			}
		}
		ests = train.Evaluate(net, samples, priors)
	}

	shown := ests
	if *limit > 0 && len(shown) > *limit {
		shown = shown[:*limit]
	}
	fmt.Print(train.FormatEstimates(shown))

	re := train.RelativeErrors(ests)
	fmt.Printf("\naverage relative errors over %d samples: ΩM %.4f  σ8 %.4f  ns %.4f\n",
		len(ests), re[0], re[1], re[2])
	fmt.Println("(paper §VII-A converged: 0.0022, 0.0094, 0.0096)")
}

// remoteEvaluate scores the split against a running daemon through the v1
// client; the server denormalizes through its own priors, so the
// estimates are exactly what external callers of the API would see.
func remoteEvaluate(addr, model, wireFlag string, samples []*cosmo.Sample, priors cosmo.Priors) ([]train.Estimate, error) {
	enc, err := client.ParseEncoding(wireFlag)
	if err != nil {
		return nil, err
	}
	cl := client.New(addr, client.WithEncoding(enc))
	ctx := context.Background()
	ests := make([]train.Estimate, 0, len(samples))
	for i, s := range samples {
		dims := []int{s.NumChannels(), s.Dim, s.Dim, s.Dim}
		resp, err := cl.Predict(ctx, model, dims, s.Voxels)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		ests = append(ests, train.Estimate{
			True: priors.Denormalize(s.Target),
			Pred: cosmo.Params{
				OmegaM: resp.Params.OmegaM,
				Sigma8: resp.Params.Sigma8,
				NS:     resp.Params.NS,
			},
		})
	}
	return ests, nil
}
