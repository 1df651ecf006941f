package exp

// The classical Erlang formulas for capacity-driven waiting and loss in
// multi-server systems, the analytic side of AnalyzeQoS: treating the
// fleet's cores as an M/M/c server pool, Erlang C gives the probability a
// request would wait *due to capacity alone*. Comparing that against the
// simulator's observed queueing isolates how much waiting is capacity
// (should match Erlang C) versus boot latency (the part the spare-server
// controller exists to remove).

import (
	"fmt"
	"math"
)

// ErlangB returns the blocking probability of an M/M/c/c loss system with
// offered load a (in Erlangs, a = λ * mean service time) and c servers,
// using the numerically stable recurrence
//
//	B(0, a) = 1;  B(k, a) = a*B(k-1, a) / (k + a*B(k-1, a))
//
// It panics on a < 0 or c < 0 (programming errors, not runtime inputs).
func ErlangB(c int, a float64) float64 {
	if a < 0 || c < 0 {
		panic(fmt.Sprintf("exp: invalid ErlangB args c=%d a=%g", c, a))
	}
	if a == 0 {
		return 0
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the probability that an arrival must wait in an M/M/c
// queueing system with offered load a Erlangs and c servers, derived from
// Erlang B via
//
//	C(c, a) = c*B / (c - a*(1 - B))
//
// For a >= c (overload) the wait probability is 1: the queue grows without
// bound.
func ErlangC(c int, a float64) float64 {
	if a < 0 || c < 0 {
		panic(fmt.Sprintf("exp: invalid ErlangC args c=%d a=%g", c, a))
	}
	if c == 0 {
		if a > 0 {
			return 1
		}
		return 0
	}
	if a >= float64(c) {
		return 1
	}
	b := ErlangB(c, a)
	return float64(c) * b / (float64(c) - a*(1-b))
}

// MeanWaitMM_c returns the expected waiting time in queue for an M/M/c
// system: W_q = C(c, a) / (c*mu - lambda), with service rate mu per server
// and arrival rate lambda (so a = lambda/mu). Returns +Inf at or beyond
// saturation.
func MeanWaitMM_c(c int, lambda, mu float64) float64 {
	if lambda < 0 || mu <= 0 || c < 0 {
		panic(fmt.Sprintf("exp: invalid MeanWaitMM_c args c=%d lambda=%g mu=%g", c, lambda, mu))
	}
	if lambda == 0 {
		return 0
	}
	a := lambda / mu
	if a >= float64(c) {
		return math.Inf(1)
	}
	return ErlangC(c, a) / (float64(c)*mu - lambda)
}

// ServersForWaitProbability returns the smallest server count c such that
// the M/M/c waiting probability is at or below target — an analytic
// counterpart to the paper's spare-server sizing (how many *slots* the
// fleet must keep live for a given QoS bound).
func ServersForWaitProbability(a, target float64) int {
	if !(target > 0 && target < 1) {
		panic(fmt.Sprintf("exp: target %g not in (0,1)", target))
	}
	if a <= 0 {
		return 0
	}
	c := int(math.Ceil(a)) // below this the system is unstable
	for ; ; c++ {
		if ErlangC(c, a) <= target {
			return c
		}
	}
}
