package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one reading of a daemon's Prometheus /metrics: every series by
// its exposition key, name{labels}.
type scrape map[string]float64

func scrapeMetrics(addr string) (scrape, error) {
	var c client
	defer c.close()
	status, body, err := c.do(addr, simpleRequest("GET", "/metrics"))
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := make(scrape)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta sums, over every series of the family whose labels contain match,
// how much it grew between two scrapes.
func (after scrape) delta(before scrape, family, match string) float64 {
	var sum float64
	for key, v := range after {
		if seriesOf(key, family) && strings.Contains(key, match) {
			sum += v - before[key]
		}
	}
	return sum
}

func seriesOf(key, family string) bool {
	return key == family || strings.HasPrefix(key, family+"{")
}

// series lists the per-series growth of a family between two scrapes.
func (after scrape) series(before scrape, family string) []float64 {
	var out []float64
	for key, v := range after {
		if seriesOf(key, family) {
			out = append(out, v-before[key])
		}
	}
	return out
}

// histQuantile estimates a quantile, in the histogram's own unit, of the
// observations a histogram family took between two scrapes, over the series
// whose labels contain match. Like Prometheus it interpolates inside the
// bucket the rank falls in.
func (after scrape) histQuantile(before scrape, family, match string, q float64) float64 {
	type bucket struct{ le, n float64 }
	byLe := make(map[float64]float64)
	for key, v := range after {
		if !seriesOf(key, family+"_bucket") || !strings.Contains(key, match) {
			continue
		}
		i := strings.Index(key, `le="`)
		if i < 0 {
			continue
		}
		rest := key[i+4:]
		le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
		if err != nil { // "+Inf" parses; anything else is not a bucket
			continue
		}
		byLe[le] += v - before[key]
	}
	buckets := make([]bucket, 0, len(byLe))
	for le, n := range byLe {
		buckets = append(buckets, bucket{le, n})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 || buckets[len(buckets)-1].n == 0 {
		return math.NaN()
	}
	rank := q * buckets[len(buckets)-1].n
	for i, b := range buckets {
		if b.n < rank {
			continue
		}
		if math.IsInf(b.le, 1) {
			return buckets[i-1].le
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = buckets[i-1].le, buckets[i-1].n
		}
		if b.n == below {
			return b.le
		}
		return lo + (b.le-lo)*(rank-below)/(b.n-below)
	}
	return math.NaN()
}
