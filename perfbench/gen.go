package main

import (
	"math/rand/v2"

	"multiprefix/internal/intsort"
)

// Input shapes of the four workloads. They are fixed: a workload is
// one shape, and the seed only chooses the values inside it.
const (
	svcN, svcM     = 1 << 16, 256
	svcVectors     = 4
	streamN        = 1 << 22
	streamM        = 16
	streamVectors  = 4
	updN, updM     = 1 << 18, 1024
	updK, updQ     = 8, 8 // point updates and prefix queries per transaction
	updMaxEvery    = 8    // every 8th transaction goes to the max plan
	nasN           = 1 << 20
	nasM           = 1 << 19 // NAS IS class A key range
	nasKeySets     = 2
	nasCanonicalIS = 314159265
)

// rng returns the generator for one input stream of a seeded run; each
// stream has its own constant so that adding a stream never shifts
// another's values.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func genLabels(r *rand.Rand, n, m int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = r.IntN(m)
	}
	return out
}

// genValues draws values in [-lim, lim], small enough that no int64 sum
// over the workload sizes can overflow.
func genValues(r *rand.Rand, n int, lim int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int64N(2*lim+1) - lim
	}
	return out
}

// nasSeed maps a benchmark seed to an odd NAS generator seed; seed 0
// keeps the NAS benchmark's canonical sequence.
func nasSeed(seed int64, set int) uint64 {
	return uint64(nasCanonicalIS) + 2*uint64(seed)*nasKeySets + 2*uint64(set)
}

func genNASKeys(seed int64) [][]int32 {
	sets := make([][]int32, nasKeySets)
	for s := range sets {
		sets[s] = intsort.NASKeys(nasN, nasM, nasSeed(seed, s))
	}
	return sets
}

// txn is one plan_update transaction: updK point writes, updQ prefix
// reads and one label reduction, on the sum plan or the max plan.
type txn struct {
	onMax   bool
	idx     [updK]int
	val     [updK]int64
	queries [updQ]int
	label   int
}

// txnGen draws the seeded transaction stream and the seeded points at
// which the answers are checked against a full serial recompute.
type txnGen struct {
	r    *rand.Rand
	seq  int
	next int // sequence number of the next checked transaction
}

func newTxnGen(seed int64) *txnGen {
	g := &txnGen{r: rng(seed, 0x7478)}
	g.next = g.gap()
	return g
}

// gap spaces checks 64..191 transactions apart: often enough that a
// wrong answer surfaces within a run, rarely enough that the O(n)
// recompute stays a small share of the loop.
func (g *txnGen) gap() int { return 64 + g.r.IntN(128) }

// draw returns the next transaction and whether it is checked.
func (g *txnGen) draw() (txn, bool) {
	t := txn{onMax: g.seq%updMaxEvery == updMaxEvery-1}
	for i := range t.idx {
		t.idx[i] = g.r.IntN(updN)
		t.val[i] = g.r.Int64N(2001) - 1000
	}
	for i := range t.queries {
		t.queries[i] = g.r.IntN(updN)
	}
	t.label = g.r.IntN(updM)
	check := g.seq == g.next
	if check {
		g.next += g.gap()
	}
	g.seq++
	return t, check
}
