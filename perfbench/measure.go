package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: a p99 over fewer than 1000 samples would be set by a
// handful of outliers, so it is refused rather than reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of
// sorted, and how many samples lie above its rank. It fails when fewer
// than minBeyond samples lie above it.
func percentile(sorted []time.Duration, p float64) (time.Duration, int, error) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile %.4g of no samples", p)
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = min(max(rank, 0), n-1)
	beyond := n - 1 - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("percentile %.4g of %d samples leaves %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[rank], beyond, nil
}

// median returns the middle value of xs (mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	h := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[h]
	}
	return (xs[h-1] + xs[h]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Outcome classes of one op. Every class but okOp counts as failed.
const (
	okOp = iota
	wrongAnswer
	refused   // 429 / 503: shed by admission, draining, quota
	httpError // any other non-200 status
	transport // no response: dial, write or read failure
	opError   // a library call returned an error
)

// tally accounts attempted and failed ops by class.
type tally struct {
	attempted int
	byClass   [opError + 1]int
}

func (t *tally) add(class int) {
	t.attempted++
	t.byClass[class]++
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	for i, c := range o.byClass {
		t.byClass[i] += c
	}
}

func (t tally) failed() int { return t.attempted - t.byClass[okOp] }

func (t tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// httpClass classifies one HTTP exchange before its body is checked: a
// transport error, a refusal, another error status, or a 200 whose
// answer still has to be verified (okOp).
func httpClass(status int, err error) int {
	switch {
	case err != nil:
		return transport
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return refused
	case status != http.StatusOK:
		return httpError
	}
	return okOp
}

func (t tally) String() string {
	return fmt.Sprintf("attempted=%d failed=%d (wrong=%d refused=%d http=%d transport=%d error=%d)",
		t.attempted, t.failed(), t.byClass[wrongAnswer], t.byClass[refused],
		t.byClass[httpError], t.byClass[transport], t.byClass[opError])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
