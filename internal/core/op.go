package core

import "math"

// Op is a binary associative operator over T together with its identity
// element. Associativity is required; commutativity is not (all engines
// combine strictly in vector order). The zero Op is invalid.
type Op[T any] struct {
	// Name identifies the operator in errors and reports, e.g. "+int64".
	Name string
	// Identity is the operator's identity element e: Combine(e, x) == x
	// and Combine(x, e) == x for all x.
	Identity T
	// Combine applies the operator. It must be associative and must not
	// retain or mutate its arguments.
	Combine func(a, b T) T
	// IsIdentity optionally reports whether x equals the identity.
	// It is only needed by SpineTestNonzero (the paper's rowsum != 0
	// shortcut); leave nil otherwise.
	IsIdentity func(x T) bool
	// Fast optionally declares that Combine is semantically one of the
	// built-in monomorphic kernels (see FastOp). When T is int64 or
	// float64 and no FaultHook is observing combines, the engines then
	// replace the per-element Combine indirect call with a direct
	// specialized loop in their inner phases. The zero value (FastNone)
	// always takes the generic path; a wrong declaration silently
	// computes the declared operation instead of Combine, so only set it
	// when they agree exactly (including Identity).
	Fast FastOp
}

// Valid reports whether the operator has the mandatory fields set.
func (op Op[T]) Valid() bool { return op.Combine != nil }

// Standard integer operators.
var (
	// AddInt64 is multiprefix-PLUS over int64, the operator the paper
	// concentrates on.
	AddInt64 = Op[int64]{
		Name:       "+int64",
		Identity:   0,
		Combine:    func(a, b int64) int64 { return a + b },
		IsIdentity: func(x int64) bool { return x == 0 },
		Fast:       FastAdd,
	}
	// MulInt64 is multiprefix-MULT over int64.
	MulInt64 = Op[int64]{
		Name:       "*int64",
		Identity:   1,
		Combine:    func(a, b int64) int64 { return a * b },
		IsIdentity: func(x int64) bool { return x == 1 },
	}
	// MaxInt64 is multiprefix-MAX over int64.
	MaxInt64 = Op[int64]{
		Name:     "max int64",
		Identity: minInt64,
		Combine: func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		},
		IsIdentity: func(x int64) bool { return x == minInt64 },
		Fast:       FastMax,
	}
	// MinInt64 is multiprefix-MIN over int64.
	MinInt64 = Op[int64]{
		Name:     "min int64",
		Identity: maxInt64,
		Combine: func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
		IsIdentity: func(x int64) bool { return x == maxInt64 },
		Fast:       FastMin,
	}
	// OrInt64 is bitwise OR over int64.
	OrInt64 = Op[int64]{
		Name:       "|int64",
		Identity:   0,
		Combine:    func(a, b int64) int64 { return a | b },
		IsIdentity: func(x int64) bool { return x == 0 },
	}
	// AndInt64 is bitwise AND over int64.
	AndInt64 = Op[int64]{
		Name:       "&int64",
		Identity:   -1,
		Combine:    func(a, b int64) int64 { return a & b },
		IsIdentity: func(x int64) bool { return x == -1 },
	}
	// XorInt64 is bitwise XOR over int64.
	XorInt64 = Op[int64]{
		Name:       "^int64",
		Identity:   0,
		Combine:    func(a, b int64) int64 { return a ^ b },
		IsIdentity: func(x int64) bool { return x == 0 },
	}
)

// Standard floating-point operators. AddFloat64 is associative only up
// to rounding; tests that compare engines on float64 use exact-sum
// friendly values (small integers) or tolerances.
var (
	AddFloat64 = Op[float64]{
		Name:       "+float64",
		Identity:   0,
		Combine:    func(a, b float64) float64 { return a + b },
		IsIdentity: func(x float64) bool { return x == 0 },
		Fast:       FastAdd,
	}
	MulFloat64 = Op[float64]{
		Name:       "*float64",
		Identity:   1,
		Combine:    func(a, b float64) float64 { return a * b },
		IsIdentity: func(x float64) bool { return x == 1 },
	}
	MaxFloat64 = Op[float64]{
		Name:     "max float64",
		Identity: negInfFloat64,
		Combine: func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		},
		IsIdentity: func(x float64) bool { return x == negInfFloat64 },
		Fast:       FastMax,
	}
	MinFloat64 = Op[float64]{
		Name:     "min float64",
		Identity: posInfFloat64,
		Combine: func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		},
		IsIdentity: func(x float64) bool { return x == posInfFloat64 },
		Fast:       FastMin,
	}
)

// Standard boolean operators.
var (
	AndBool = Op[bool]{
		Name:       "and",
		Identity:   true,
		Combine:    func(a, b bool) bool { return a && b },
		IsIdentity: func(x bool) bool { return x },
	}
	OrBool = Op[bool]{
		Name:       "or",
		Identity:   false,
		Combine:    func(a, b bool) bool { return a || b },
		IsIdentity: func(x bool) bool { return !x },
	}
	XorBool = Op[bool]{
		Name:       "xor",
		Identity:   false,
		Combine:    func(a, b bool) bool { return a != b },
		IsIdentity: func(x bool) bool { return !x },
	}
)

// ConcatString is string concatenation: associative but not commutative.
// It exists mainly so tests can verify that every engine combines in
// strict vector order.
var ConcatString = Op[string]{
	Name:       "concat",
	Identity:   "",
	Combine:    func(a, b string) string { return a + b },
	IsIdentity: func(x string) bool { return x == "" },
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

var (
	posInfFloat64 = math.Inf(1)
	negInfFloat64 = math.Inf(-1)
)
