// Command f0 estimates the number of distinct elements covered by a stream
// of items read from standard input (or a file), one item per line:
//
//	e <value>                      a single element
//	r <lo1> <hi1> [<lo2> <hi2>…]   a d-dimensional range (box)
//	p <a> <b> <logstep>            a 1-d arithmetic progression, step 2^logstep
//	d <lit…> 0 [<lit…> 0 …]        a DNF set in DIMACS literal convention
//
// Lines starting with '#' are comments. Item kinds may not be mixed except
// that 'e' lines are accepted alongside 'd' lines (a singleton is a DNF).
//
//	-bits int       universe bits per dimension (default 32)
//	-dims int       dimensions for range streams (default 1)
//	-nvars int      variables for DNF streams (default = -bits)
//	-alg string     element-stream sketch: bucketing|minimum|estimation
//	-par int        sketch-copy worker pool (0 = GOMAXPROCS, 1 = serial)
//	-replicas int   element streams only: ingest through a lock-free
//	                ConcurrentF0 with this many replicas fed by as many
//	                goroutines (0 = off, -1 = GOMAXPROCS)
//	-snapshot path  after ingesting, write the sketch's complete state
//	                (versioned wire codec) to path
//	-restore path   before ingesting, seed the sketch from a snapshot —
//	                crash recovery: restore + remainder of the stream is
//	                bit-identical to one uninterrupted run
//	-eps, -delta, -thresh, -iters, -seed   as in approxmc
//
// Items are ingested in chunks of 256 so the sketch copies fan out across
// the worker pool once per chunk rather than once per item; estimates are
// identical to item-at-a-time processing at any -par level, and — for
// element streams under -replicas — at any replica count.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"mcf0"
)

func main() {
	var (
		bits  = flag.Int("bits", 32, "universe bits per dimension")
		dims  = flag.Int("dims", 1, "dimensions for range streams")
		nvars = flag.Int("nvars", 0, "variables for DNF streams (default -bits)")
		alg   = flag.String("alg", "minimum", "element sketch: bucketing, minimum, estimation")
		eps   = flag.Float64("eps", 0.8, "tolerance ε")
		delta = flag.Float64("delta", 0.2, "failure probability δ")
		th    = flag.Int("thresh", 0, "override Thresh")
		it    = flag.Int("iters", 0, "override iterations")
		seed  = flag.Uint64("seed", 1, "random seed")
		par   = flag.Int("par", 0, "sketch-copy worker pool (0 = GOMAXPROCS, 1 = serial)")
		reps  = flag.Int("replicas", 0, "element streams: lock-free ConcurrentF0 replicas (0 = off, -1 = GOMAXPROCS)")
		snap  = flag.String("snapshot", "", "write the sketch snapshot to this file after ingesting")
		rest  = flag.String("restore", "", "seed the sketch from this snapshot file before ingesting")
	)
	flag.Parse()
	if *nvars == 0 {
		*nvars = *bits
	}
	cfg := mcf0.Config{Epsilon: *eps, Delta: *delta, Thresh: *th, Iterations: *it, Seed: *seed,
		Parallelism: *par}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	var (
		elemSketch  *mcf0.F0
		concSketch  *mcf0.ConcurrentF0
		rangeSketch *mcf0.RangeF0
		progSketch  *mcf0.ProgressionF0
		dnfSketch   *mcf0.DNFSetF0
		items       int
	)

	// Under -replicas, element chunks are handed to a pool of feeder
	// goroutines that ingest concurrently through the lock-free front;
	// estimates are unchanged (the replicas merge to the same state no
	// matter which feeder absorbed which chunk).
	var (
		concChunks chan []uint64
		concWG     sync.WaitGroup
	)
	startFeeders := func() {
		concChunks = make(chan []uint64, 4*concSketch.Replicas())
		for w := 0; w < concSketch.Replicas(); w++ {
			concWG.Add(1)
			go func() {
				defer concWG.Done()
				for chunk := range concChunks {
					concSketch.AddBatch(chunk)
				}
			}()
		}
	}
	startConc := func() {
		var err error
		concSketch, err = mcf0.NewConcurrentF0(*bits, mcf0.Algorithm(*alg), cfg, *reps)
		if err != nil {
			fatal(err)
		}
		startFeeders()
	}

	// Crash recovery: a snapshot written by -snapshot (or any
	// MarshalBinary blob) seeds the matching sketch, and the rest of the
	// stream continues it — restore + remainder is bit-identical to one
	// uninterrupted run, because snapshots round-trip complete state.
	var restoredKind string
	if *rest != "" {
		blob, err := os.ReadFile(*rest)
		if err != nil {
			fatal(err)
		}
		elemSketch, concSketch, rangeSketch, progSketch, dnfSketch, err =
			decodeSnapshot(blob, *par, *reps)
		if err != nil {
			fatal(err)
		}
		restoredKind, _ = mcf0.SnapshotKind(blob)
		if concSketch != nil {
			startFeeders()
		}
	}
	// A restored snapshot fixes the stream kind: items that would build a
	// *different* sketch are a wrong-mode restore, not a fresh stream.
	guardRestore := func(want string) {
		if restoredKind != "" {
			fatal(fmt.Errorf("%s items do not match the restored %s snapshot", want, restoredKind))
		}
	}

	// Chunked ingestion: items accumulate per destination and flush to the
	// batch APIs every batchSize items (and at EOF), so the per-copy worker
	// pool dispatches once per chunk instead of once per item. The sketches
	// are order-insensitive, so estimates match item-at-a-time processing.
	const batchSize = 256
	var (
		elemBuf    []uint64   // 'e' lines bound for elemSketch
		dnfElemBuf []uint64   // 'e' lines bound for dnfSketch
		rangeLos   [][]uint64 // 'r' lines
		rangeHis   [][]uint64
		dnfBuf     [][][]int // 'd' lines
	)
	flush := func() {
		if len(elemBuf) > 0 {
			if concSketch != nil {
				concChunks <- append([]uint64(nil), elemBuf...)
			} else {
				elemSketch.AddBatch(elemBuf)
			}
			elemBuf = elemBuf[:0]
		}
		if len(dnfElemBuf) > 0 {
			dnfSketch.AddElementBatch(dnfElemBuf)
			dnfElemBuf = dnfElemBuf[:0]
		}
		if len(rangeLos) > 0 {
			if err := rangeSketch.AddRangeBatch(rangeLos, rangeHis); err != nil {
				fatal(err)
			}
			rangeLos, rangeHis = rangeLos[:0], rangeHis[:0]
		}
		if len(dnfBuf) > 0 {
			if err := dnfSketch.AddDNFBatch(dnfBuf); err != nil {
				fatal(err)
			}
			dnfBuf = dnfBuf[:0]
		}
	}

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		kind, args := fields[0], fields[1:]
		items++
		switch kind {
		case "e":
			if dnfSketch != nil {
				dnfElemBuf = append(dnfElemBuf, parseU(args[0]))
				if len(dnfElemBuf) >= batchSize {
					flush()
				}
				continue
			}
			if elemSketch == nil && concSketch == nil {
				guardRestore("element")
				if *reps != 0 {
					startConc()
				} else {
					var err error
					elemSketch, err = mcf0.NewF0(*bits, mcf0.Algorithm(*alg), cfg)
					if err != nil {
						fatal(err)
					}
				}
			}
			elemBuf = append(elemBuf, parseU(args[0]))
			if len(elemBuf) >= batchSize {
				flush()
			}
		case "r":
			if rangeSketch == nil {
				guardRestore("range")
				widths := make([]int, *dims)
				for i := range widths {
					widths[i] = *bits
				}
				var err error
				rangeSketch, err = mcf0.NewRangeF0(widths, cfg)
				if err != nil {
					fatal(err)
				}
			}
			if len(args) != 2**dims {
				fatal(fmt.Errorf("range line needs %d bounds, got %d", 2**dims, len(args)))
			}
			lo := make([]uint64, *dims)
			hi := make([]uint64, *dims)
			for i := 0; i < *dims; i++ {
				lo[i], hi[i] = parseU(args[2*i]), parseU(args[2*i+1])
			}
			rangeLos, rangeHis = append(rangeLos, lo), append(rangeHis, hi)
			if len(rangeLos) >= batchSize {
				flush()
			}
		case "p":
			if progSketch == nil {
				guardRestore("progression")
				var err error
				progSketch, err = mcf0.NewProgressionF0([]int{*bits}, cfg)
				if err != nil {
					fatal(err)
				}
			}
			if len(args) != 3 {
				fatal(fmt.Errorf("progression line needs a b logstep"))
			}
			ls, err := strconv.Atoi(args[2])
			if err != nil {
				fatal(err)
			}
			if err := progSketch.AddProgression(
				[]uint64{parseU(args[0])}, []uint64{parseU(args[1])}, []int{ls}); err != nil {
				fatal(err)
			}
		case "d":
			if dnfSketch == nil {
				guardRestore("DNF")
				var err error
				dnfSketch, err = mcf0.NewDNFSetF0(*nvars, cfg)
				if err != nil {
					fatal(err)
				}
			}
			terms, err := parseTerms(args)
			if err != nil {
				fatal(err)
			}
			dnfBuf = append(dnfBuf, terms)
			if len(dnfBuf) >= batchSize {
				flush()
			}
		default:
			fatal(fmt.Errorf("unknown item kind %q", kind))
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	flush()
	if concSketch != nil {
		close(concChunks)
		concWG.Wait()
	}

	var est float64
	switch {
	case concSketch != nil:
		est = concSketch.Estimate()
		if err := concSketch.Err(); err != nil {
			fatal(err)
		}
	case elemSketch != nil:
		est = elemSketch.Estimate()
	case rangeSketch != nil:
		est = rangeSketch.Estimate()
	case progSketch != nil:
		est = progSketch.Estimate()
	case dnfSketch != nil:
		est = dnfSketch.Estimate()
	default:
		fatal(fmt.Errorf("empty stream"))
	}
	if *snap != "" {
		blob, err := encodeSnapshot(elemSketch, concSketch, rangeSketch, progSketch, dnfSketch)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*snap, blob, 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("items %d\n", items)
	fmt.Printf("f0 %.6g\n", est)
}

// decodeSnapshot restores a snapshot blob into the sketch slot matching
// its wire kind (exactly one of the returned sketches is non-nil). An F0
// snapshot lands on the concurrent front when reps requests one, so a
// serial run can be resumed concurrently and vice versa; kinds with no
// input mode here (e.g. affine streams) are refused by name.
func decodeSnapshot(blob []byte, par, reps int) (*mcf0.F0, *mcf0.ConcurrentF0, *mcf0.RangeF0, *mcf0.ProgressionF0, *mcf0.DNFSetF0, error) {
	kind, err := mcf0.SnapshotKind(blob)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	switch kind {
	case "mcf0.F0":
		if reps != 0 {
			c, err := mcf0.DecodeConcurrentF0(blob, reps)
			return nil, c, nil, nil, nil, err
		}
		f, err := mcf0.DecodeF0(blob, par)
		return f, nil, nil, nil, nil, err
	case "mcf0.RangeF0":
		r, err := mcf0.DecodeRangeF0(blob, par)
		return nil, nil, r, nil, nil, err
	case "mcf0.ProgressionF0":
		p, err := mcf0.DecodeProgressionF0(blob, par)
		return nil, nil, nil, p, nil, err
	case "mcf0.DNFSetF0":
		d, err := mcf0.DecodeDNFSetF0(blob, par)
		return nil, nil, nil, nil, d, err
	default:
		return nil, nil, nil, nil, nil, fmt.Errorf("snapshot kind %s has no f0 input mode", kind)
	}
}

// encodeSnapshot marshals whichever sketch the run built (the concurrent
// front snapshots as a plain F0 message).
func encodeSnapshot(elem *mcf0.F0, conc *mcf0.ConcurrentF0, rng *mcf0.RangeF0, prog *mcf0.ProgressionF0, dnf *mcf0.DNFSetF0) ([]byte, error) {
	switch {
	case conc != nil:
		return conc.MarshalBinary()
	case elem != nil:
		return elem.MarshalBinary()
	case rng != nil:
		return rng.MarshalBinary()
	case prog != nil:
		return prog.MarshalBinary()
	case dnf != nil:
		return dnf.MarshalBinary()
	default:
		return nil, fmt.Errorf("nothing to snapshot")
	}
}

func parseTerms(args []string) ([][]int, error) {
	var terms [][]int
	var cur []int
	for _, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, err
		}
		if v == 0 {
			terms = append(terms, cur)
			cur = nil
			continue
		}
		cur = append(cur, v)
	}
	if len(cur) > 0 {
		terms = append(terms, cur)
	}
	return terms, nil
}

func parseU(s string) uint64 {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		fatal(err)
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "f0:", err)
	os.Exit(1)
}
