//go:build race

package main

// jobScope: under the race detector TestRunDigests runs the first 1,500
// jobs of each workload.
const jobScope = 1500
