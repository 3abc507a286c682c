package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is attributed to layers by reading the pprof protobuf
// the runtime writes (github.com/google/pprof/proto/profile.proto). Only
// the fields attribution needs are decoded: samples with their location
// ids and values, locations with their line entries, functions and the
// string table.

// cpuShares accumulates CPU-profile time per bucket. Buckets are the
// repository's layers ("sim", "chdev", ...), plus "gc" for garbage
// collection outside any ibflow frame, "handoff" for channel and
// scheduler work of sim proc switching (a subset of "sim" time plus
// scheduler samples with no ibflow frame), "bench" for the benchmark's own
// frames and "other" for the rest.
type cpuShares struct {
	Total   int64
	Buckets map[string]int64
}

func newCPUShares() *cpuShares { return &cpuShares{Buckets: map[string]int64{}} }

// pct returns bucket b's share of all profiled CPU time, in percent.
func (c *cpuShares) pct(b string) float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Buckets[b]) / float64(c.Total)
}

// merge adds o's samples to c.
func (c *cpuShares) merge(o *cpuShares) {
	c.Total += o.Total
	for b, ns := range o.Buckets {
		c.Buckets[b] += ns
	}
}

const (
	modulePrefix = "ibflow/internal/"
	// The benchmark is a main package: its symbols are named "main.".
	benchPrefix = "main."
)

// add decodes one gzipped CPU profile and attributes each sample's CPU
// time to the innermost ibflow frame of its stack.
func (c *cpuShares) add(gz []byte) error {
	p, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		frames := p.frames(s.locs)
		bucket, handoff := attribute(frames)
		c.Total += s.nanos
		c.Buckets[bucket] += s.nanos
		if handoff {
			c.Buckets["handoff"] += s.nanos
		}
	}
	return nil
}

// attribute picks a sample's bucket from its frames, innermost first, and
// reports whether the sample is sim proc-switching overhead.
func attribute(frames []string) (bucket string, handoff bool) {
	sched := false
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			layer, _, _ := strings.Cut(rest, ".")
			layer, _, _ = strings.Cut(layer, "/")
			return layer, layer == "sim" && (sched || procSwitch(f))
		}
		if strings.HasPrefix(f, benchPrefix) {
			return "bench", false
		}
		if schedFrame(f) {
			sched = true
		}
	}
	for _, f := range frames {
		if gcFrame(f) {
			return "gc", false
		}
	}
	// Scheduler work with no ibflow frame is the other side of a proc
	// handoff: the benchmark runs one world at a time, and nothing but
	// the rank procs and the engine blocks on channels.
	return "other", sched
}

// procSwitch reports whether f is one of the sim functions that hand the
// CPU between the engine and a rank proc.
func procSwitch(f string) bool {
	return strings.HasPrefix(f, modulePrefix+"sim.(*Engine).dispatch") ||
		strings.HasPrefix(f, modulePrefix+"sim.(*Proc).park") ||
		strings.HasPrefix(f, modulePrefix+"sim.(*Engine).spawn")
}

func schedFrame(f string) bool {
	for _, p := range []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.send",
		"runtime.recv", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.park_m", "runtime.mcall", "runtime.schedule", "runtime.findRunnable",
		"runtime.execute", "runtime.stopm", "runtime.startm", "runtime.wakep",
		"runtime.notesleep", "runtime.notewakeup", "runtime.futex", "runtime.runqget",
		"runtime.runqput", "runtime.goschedIfBusy", "runtime.lock2", "runtime.unlock2",
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

func gcFrame(f string) bool {
	for _, p := range []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssist", "runtime.markroot",
		"runtime.scanobject", "runtime.scanblock", "runtime.greyobject", "runtime.gcMark",
		"runtime.gcStart", "runtime.gcSweep", "runtime.bgsweep", "runtime.sweepone",
		"runtime.bgscavenge", "runtime.wbBuf", "runtime.GC",
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

type profSample struct {
	locs  []uint64
	nanos int64
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

// frames returns the function names of a stack, innermost first, with
// inlined calls expanded.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fn := range p.locations[l] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	// Sample value index of CPU nanoseconds: the runtime writes the
	// sample types [samples/count, cpu/nanoseconds].
	const nanosIdx = 1
	err = forFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var vals []int64
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b != nil {
						return forVarints(b, func(x uint64) { s.locs = append(s.locs, x) })
					}
					s.locs = append(s.locs, v)
				case 2:
					if b != nil {
						return forVarints(b, func(x uint64) { vals = append(vals, int64(x)) })
					}
					vals = append(vals, int64(v))
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > nanosIdx {
				s.nanos = vals[nanosIdx]
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return forFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function
			var id uint64
			name := int64(-1)
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// forFields walks the fields of one protobuf message. Varint fields pass
// their value with b == nil; length-delimited fields pass their bytes.
// Fixed-width fields are skipped.
func forFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

func forVarints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
