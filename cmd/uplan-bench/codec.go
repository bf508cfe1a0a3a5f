package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"uplan/internal/bench"
	"uplan/internal/codec"
	"uplan/internal/convert"
	"uplan/internal/core"
)

// runCodecUnpack opens an existing packed corpus, decodes every plan, and
// prints a summary — the verification half of -pack.
func runCodecUnpack(path string) error {
	r, err := codec.OpenCorpus(path)
	if err != nil {
		return err
	}
	defer r.Close()
	ar := core.NewPlanArena()
	bySource := map[string]int{}
	nodes := 0
	for {
		ar.Reset()
		p, err := r.Next(ar)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("unpacking %s: %w", path, err)
		}
		bySource[p.Source]++
		nodes += p.NodeCount()
	}
	fmt.Printf("== Unpack: %s ==\n", path)
	fmt.Printf("%d plans, %d nodes, %d dialects\n", r.Len(), nodes, len(bySource))
	for _, src := range sortedKeys(bySource) {
		fmt.Printf("  %-14s %d\n", src, bySource[src])
	}
	if err := r.Close(); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runCodecPack packs the converted corpus into the binary format at path
// and prints the packed size against the corpus's canonical JSON bytes.
// Decode throughput is measured by BenchmarkCodecDecode, not here.
func runCodecPack(seed int64, path string) error {
	corpus, err := bench.Corpus(seed)
	if err != nil {
		return err
	}
	plans := make([]*core.Plan, len(corpus))
	jsonBytes := 0
	for i, rec := range corpus {
		c, err := convert.Cached(rec.Dialect)
		if err != nil {
			return err
		}
		p, err := c.Convert(rec.Serialized)
		if err != nil {
			return fmt.Errorf("record %d (%s): %w", i, rec.Dialect, err)
		}
		plans[i] = p
		body, err := p.MarshalJSON()
		if err != nil {
			return err
		}
		jsonBytes += len(body)
	}
	if err := codec.WriteCorpusFile(path, plans); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("== Codec: %d-record corpus packed to %s ==\n", len(corpus), path)
	fmt.Printf("packed: %d bytes vs %d JSON bytes (%.2fx)\n\n",
		info.Size(), jsonBytes, float64(info.Size())/float64(jsonBytes))
	return nil
}
