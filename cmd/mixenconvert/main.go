// Command mixenconvert converts graphs between the text edge-list format
// and the CSR binary format Mixen/GPOP consume directly, and can persist
// a ready-to-mmap partition alongside.
//
// Usage:
//
//	mixenconvert -in graph.txt -out graph.bin              # text -> binary
//	mixenconvert -in graph.bin -out graph.txt              # binary -> text
//	mixenconvert -preset wiki -shrink 8 -out wiki.bin      # generate preset
//	mixenconvert -preset wiki -partition wiki.mixp -autotune
//
// Format is inferred from the file extension: .bin/.mixb = CSR binary,
// anything else = text edge list. A -partition file (.mixp) bakes in the
// full preprocessing pipeline — hub-first filter, block side (-side, or
// measured by -autotune), 2-D blocked partition — so mixenserve -partition
// starts serving instantly by mapping it.
//
// Flag combinations are validated up front: exactly one input source
// (-in or -preset), at least one output (-out, -partition),
// -shrink only with -preset, the layout flags (-autotune, -side) only with
// -partition, -side not negative, and -autotune only without a -side.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mixen"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mixenconvert:", err)
		os.Exit(1)
	}
}

// usageError marks a bad flag combination (as opposed to an I/O or build
// failure) so tests can distinguish the two.
type usageError struct{ msg string }

func (e usageError) Error() string { return "usage: " + e.msg }

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("mixenconvert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input graph path")
	preset := fs.String("preset", "", "generate a dataset preset instead of reading -in")
	shrink := fs.Int("shrink", 8, "preset shrink factor")
	out := fs.String("out", "", "output graph path")
	partitionPath := fs.String("partition", "", "write a ready-to-mmap .mixp partition here")
	autotune := fs.Bool("autotune", false, "bake the measured block-side auto-tuner's pick into -partition")
	side := fs.Int("side", 0, "bake a fixed block side into -partition (0 = heuristic)")
	threads := fs.Int("threads", 0, "worker threads for the -partition build (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate the flag combination before doing any work, so a flag that
	// would be silently ignored is a hard usage error instead.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case fs.NArg() > 0:
		return usageError{fmt.Sprintf("unexpected positional arguments %q (all inputs are flags)", fs.Args())}
	case set["in"] && set["preset"]:
		return usageError{"specify only one of -in, -preset"}
	case !set["in"] && !set["preset"]:
		return usageError{"specify -in or -preset"}
	case set["shrink"] && !set["preset"]:
		return usageError{"-shrink only applies to -preset generation"}
	case *out == "" && *partitionPath == "":
		return usageError{"nothing to do: specify -out and/or -partition"}
	case *partitionPath == "" && (set["autotune"] || set["side"] || set["threads"]):
		return usageError{"-autotune, -side and -threads only apply to a -partition build"}
	case *side < 0:
		return usageError{fmt.Sprintf("-side %d is negative (0 picks the heuristic side)", *side)}
	case *autotune && *side != 0:
		return usageError{"-autotune picks the block side; drop -side or -autotune"}
	}

	g, err := load(*in, *preset, *shrink)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "loaded %v\n", g)

	if *out != "" {
		if err := save(g, *out); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *out)
	}
	if *partitionPath != "" {
		eng, err := mixen.New(g, mixen.Config{
			Side:     *side,
			Threads:  *threads,
			AutoTune: *autotune,
		})
		if err != nil {
			return err
		}
		if err := mixen.WritePartition(*partitionPath, eng); err != nil {
			return err
		}
		st, err := os.Stat(*partitionPath)
		if err != nil {
			return err
		}
		tuned := ""
		if len(eng.Tuned) > 0 {
			tuned = ", autotuned"
		}
		fmt.Fprintf(stderr, "wrote partition %s (%d bytes, side=%d%s)\n",
			*partitionPath, st.Size(), eng.P.Side, tuned)
	}
	return nil
}

func isBinary(path string) bool {
	return strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".mixb")
}

func load(in, preset string, shrink int) (*mixen.Graph, error) {
	if preset != "" {
		return mixen.Dataset(preset, shrink)
	}
	fh, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	if isBinary(in) {
		return mixen.ReadBinary(fh)
	}
	return mixen.ReadEdgeList(fh, 0)
}

func save(g *mixen.Graph, out string) error {
	fh, err := os.Create(out)
	if err != nil {
		return err
	}
	defer fh.Close()
	if isBinary(out) {
		return g.WriteBinary(fh)
	}
	return g.WriteEdgeList(fh)
}
