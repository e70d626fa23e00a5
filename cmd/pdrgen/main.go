// Command pdrgen generates a moving-object workload — initial states plus a
// per-tick location-update stream — and writes it as JSON lines (see
// internal/wire) for consumption by pdrserve, pdrquery or external tools.
// The objects walk the one synthetic metro road network (internal/roadnet)
// with datagen's paper-scale defaults; only the object count, the length of
// the stream and the seed are settable.
//
// Usage:
//
//	pdrgen -n 10000 -ticks 30 -seed 1 -o workload.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pdr/internal/datagen"
	"pdr/internal/motion"
	"pdr/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, stdio, exit status) made
// testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdrgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n     = fs.Int("n", 10000, "number of moving objects")
		ticks = fs.Int("ticks", 30, "ticks of update stream to generate")
		seed  = fs.Int64("seed", 1, "workload seed")
		out   = fs.String("o", "-", "output file (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	w := stdout
	var f *os.File
	if *out != "-" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintln(stderr, "pdrgen:", err)
			return 1
		}
		w = f
	}

	cfg := datagen.DefaultConfig(*n)
	cfg.Seed = *seed
	updates, err := generate(w, cfg, *ticks)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "pdrgen:", err)
		return 1
	}
	fmt.Fprintf(stderr, "pdrgen: wrote %d objects, %d ticks, %d updates\n", *n, *ticks, updates)
	return 0
}

// generate writes cfg's initial states and ticks ticks of its update stream
// to w and returns the number of updates written.
func generate(w io.Writer, cfg datagen.Config, ticks int) (int, error) {
	g, err := datagen.New(cfg)
	if err != nil {
		return 0, err
	}
	ww := wire.NewWriter(w)
	for _, s := range g.InitialStates() {
		if err := ww.Write(wire.FromState(wire.KindState, s, 0)); err != nil {
			return 0, err
		}
	}
	updates := 0
	for t := 0; t < ticks; t++ {
		ups := g.Advance()
		if err := ww.Write(wire.Record{Kind: wire.KindTick, Tick: int64(g.Now())}); err != nil {
			return updates, err
		}
		for _, u := range ups {
			kind := wire.KindInsert
			if u.Kind == motion.Delete {
				kind = wire.KindDelete
			}
			if err := ww.Write(wire.FromState(kind, u.State, u.At)); err != nil {
				return updates, err
			}
			updates++
		}
	}
	return updates, ww.Flush()
}
