//go:build !race

package main

// jobScope: TestRunDigests runs each workload whole.
const jobScope = 0
