// Command cosmoflow-tracecat validates and summarizes a training timeline
// trace: it reads the Chrome trace-event JSON cosmoflow-train writes with
// -timeline-out, strictly validates it (any malformed or unknown event is
// an error, not a skip), and prints the cross-rank straggler report —
// per-phase per-rank timings, each rank's compute/comm/overlap split, and
// the slowest-rank attribution the timeline smoke test greps for.
//
// Usage:
//
//	cosmoflow-tracecat run.trace.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/obsv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmoflow-tracecat: ")

	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cosmoflow-tracecat run.trace.json")
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	tls, err := obsv.ReadChromeTrace(f)
	f.Close()
	if err != nil {
		log.Fatalf("%s: %v", flag.Arg(0), err)
	}
	fmt.Print(obsv.BuildStragglerReport(tls))
}
