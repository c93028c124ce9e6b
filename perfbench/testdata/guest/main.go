// Command guest is the benchmark's real toolchain program. It is compiled
// twice from this one source: natively, to produce the reference output,
// and with GOOS=wasip1 GOARCH=wasm, to be instrumented and run under
// analysis. Its output depends only on its arguments (seed and size), so
// the two builds must print the same bytes.
//
// Usage: guest <seed> <size>
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
)

// record is the unit of work: generated, encoded, decoded, sorted and hashed.
type record struct {
	ID    int               `json:"id"`
	Name  string            `json:"name"`
	Score float64           `json:"score"`
	Tags  []string          `json:"tags"`
	Attrs map[string]int    `json:"attrs"`
	Notes map[string]string `json:"notes,omitempty"`
}

var syllables = []string{"ka", "lo", "mi", "ru", "te", "so", "na", "vi", "de", "pa", "zu", "qo"}

func word(r *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(syllables[r.Intn(len(syllables))])
	}
	return b.String()
}

func generate(r *rand.Rand, size int) []record {
	recs := make([]record, size)
	for i := range recs {
		rec := record{
			ID:    r.Intn(1 << 20),
			Name:  word(r, 2+r.Intn(3)),
			Score: float64(r.Intn(1_000_000)) / 1000,
			Attrs: map[string]int{},
		}
		for t := r.Intn(4); t >= 0; t-- {
			rec.Tags = append(rec.Tags, word(r, 1+r.Intn(2)))
		}
		for a := r.Intn(5); a >= 0; a-- {
			rec.Attrs[word(r, 1)] = r.Intn(100)
		}
		if r.Intn(3) == 0 {
			rec.Notes = map[string]string{"by": word(r, 2)}
		}
		recs[i] = rec
	}
	return recs
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: guest <seed> <size>")
		os.Exit(2)
	}
	seed, err := strconv.ParseInt(os.Args[1], 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "guest: seed:", err)
		os.Exit(2)
	}
	size, err := strconv.Atoi(os.Args[2])
	if err != nil || size < 1 {
		fmt.Fprintln(os.Stderr, "guest: size must be a positive integer")
		os.Exit(2)
	}
	r := rand.New(rand.NewSource(seed))
	recs := generate(r, size)

	// JSON round trip: the decoded copy must match what was encoded.
	blob, err := json.Marshal(recs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "guest: marshal:", err)
		os.Exit(1)
	}
	var back []record
	if err := json.Unmarshal(blob, &back); err != nil {
		fmt.Fprintln(os.Stderr, "guest: unmarshal:", err)
		os.Exit(1)
	}

	// Sort by score, then name, then id, so ties order the same everywhere.
	sort.Slice(back, func(i, j int) bool {
		a, b := back[i], back[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID < b.ID
	})

	// Aggregate tags and attributes through maps; print in key order.
	tagCount := map[string]int{}
	attrSum := map[string]int{}
	for _, rec := range back {
		for _, t := range rec.Tags {
			tagCount[t]++
		}
		for k, v := range rec.Attrs {
			attrSum[k] += v
		}
	}
	tags := make([]string, 0, len(tagCount))
	for t := range tagCount {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool {
		if tagCount[tags[i]] != tagCount[tags[j]] {
			return tagCount[tags[i]] > tagCount[tags[j]]
		}
		return tags[i] < tags[j]
	})
	attrs := make([]string, 0, len(attrSum))
	for k := range attrSum {
		attrs = append(attrs, k)
	}
	sort.Strings(attrs)

	sum := sha256.Sum256(blob)
	fmt.Printf("records %d json-bytes %d sha256 %s\n", len(back), len(blob), hex.EncodeToString(sum[:]))
	for i := 0; i < len(back) && i < 5; i++ {
		fmt.Printf("top %d: id=%d name=%s score=%.3f tags=%s\n", i, back[i].ID, back[i].Name, back[i].Score, strings.Join(back[i].Tags, ","))
	}
	for i := 0; i < len(tags) && i < 5; i++ {
		fmt.Printf("tag %s x%d\n", tags[i], tagCount[tags[i]])
	}
	for _, k := range attrs {
		fmt.Printf("attr %s=%d\n", k, attrSum[k])
	}
	h := sha256.New()
	for _, rec := range back {
		fmt.Fprintf(h, "%d|%s|%.3f|%v\n", rec.ID, rec.Name, rec.Score, rec.Tags)
	}
	fmt.Printf("order-sha256 %x\n", h.Sum(nil))
}
