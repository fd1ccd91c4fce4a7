// Command scchk checks a serialized memory-consistency history for
// sequential consistency, offline.
//
// Usage:
//
//	scchk trace.ndjson          # check a file
//	scchk -                     # check stdin
//	sweep -exp trace | scchk    # pipe straight from the exporter
//	scchk -search trace.ndjson  # ignore the claimed order; search for one
//
// The input is the NDJSON history format of internal/history: "chunk"
// records for BulkSC-style chunked machines, "access" records for
// conventional ones, an optional leading "header". Histories authored by
// other tools are accepted — see the package documentation for the three-
// line minimal example.
//
// By default scchk verifies the order the history itself claims (commit
// order for chunks, perform order for accesses) with the online witness
// checker itself (internal/sccheck, fed through gk.Check): total order,
// chunk atomicity, value coherence, same-chunk forwarding, program order.
// Violations render exactly as the machine's witness reports them. With
// -search it instead decides whether ANY interleaving of the history's
// atomic units is sequentially consistent — Gibbons–Korach's NP-complete
// VSC question — under a state bound.
//
// Exit status follows cmd/sweep's discipline: 0 the history checks out
// (or a serialization was found), 1 it does not (violations, or no
// serialization exists), 2 usage errors, unreadable or malformed input,
// or an inconclusive bounded search.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bulksc/internal/history"
	"bulksc/internal/history/gk"
	"bulksc/internal/sccheck"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scchk", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		search    = fs.Bool("search", false, "ignore the claimed order and search for any SC serialization")
		maxStates = fs.Int("max-states", gk.DefaultMaxStates, "state bound for -search")
		maxViol   = fs.Int("max-violations", sccheck.DefaultMaxViolations, "violation records to retain before capping")
		quiet     = fs.Bool("q", false, "suppress the summary line; exit status only")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: scchk [flags] [file|-]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintf(stderr, "scchk: at most one input, got %d\n", fs.NArg())
		fs.Usage()
		return 2
	}

	in := io.Reader(os.Stdin)
	name := "<stdin>"
	if fs.NArg() == 1 && fs.Arg(0) != "-" {
		f, err := openInput(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "scchk: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
		name = fs.Arg(0)
	}

	h, err := history.Read(in)
	if err != nil {
		fmt.Fprintf(stderr, "scchk: %s: %v\n", name, err)
		return 2
	}

	if *search {
		order, err := gk.Search(h, *maxStates)
		switch {
		case err == nil:
			if !*quiet {
				fmt.Fprintf(stdout, "scchk: %s: serializable (%d procs, %d ops, %d atomic steps)\n",
					name, h.Procs(), h.Ops(), len(order))
			}
			return 0
		case err == gk.ErrNotSerializable:
			fmt.Fprintf(stdout, "scchk: %s: NOT sequentially consistent: no serialization of %d ops exists\n",
				name, h.Ops())
			return 1
		case err == gk.ErrStateBound:
			fmt.Fprintf(stderr, "scchk: %s: inconclusive: state bound %d exceeded (raise -max-states)\n",
				name, *maxStates)
			return 2
		default:
			fmt.Fprintf(stderr, "scchk: %s: %v\n", name, err)
			return 2
		}
	}

	r := gk.Check(h, gk.Options{MaxViolations: *maxViol})
	if r.Ok() {
		if !*quiet {
			fmt.Fprintf(stdout, "scchk: %s: ok (%d procs, %d chunks, %d ops)\n",
				name, h.Procs(), r.Chunks(), r.Accesses())
		}
		return 0
	}
	fmt.Fprintf(stdout, "scchk: %s: %d violations\n", name, r.Total())
	for _, s := range r.Strings() {
		fmt.Fprintf(stdout, "  %s\n", s)
	}
	return 1
}

// sizedFile is a regular file whose Len reports the bytes not yet read,
// as *bytes.Reader's does, so history.Read reserves its record slice from
// the file size instead of regrowing it.
type sizedFile struct {
	f    *os.File
	left int64
}

// openInput opens the named input for history.Read.
func openInput(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return sized(f), nil
}

// sized wraps f in a sizedFile when f is a regular file; anything else
// (a pipe, a device, a file Stat cannot size) is returned as it is.
func sized(f *os.File) io.ReadCloser {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return f
	}
	return &sizedFile{f: f, left: fi.Size()}
}

func (s *sizedFile) Close() error { return s.f.Close() }

func (s *sizedFile) Read(p []byte) (int, error) {
	n, err := s.f.Read(p)
	s.left -= int64(n)
	return n, err
}

// Len returns the bytes left to read, never less than zero (the file may
// have grown or shrunk since Stat).
func (s *sizedFile) Len() int { return int(max(s.left, 0)) }
