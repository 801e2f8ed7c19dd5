// Package snb is a from-scratch Go reproduction of "The LDBC Social
// Network Benchmark: Interactive Workload" (SIGMOD 2015): the correlated
// social-network data generator, a transactional property-graph store, the
// full Interactive query workload, the dependency-tracking workload
// driver, the parameter-curation pipeline, and a harness regenerating
// every table and figure of the paper's evaluation.
//
// See README.md for a tour and docs/ARCHITECTURE.md for how the subsystems
// fit together; the runnable entry points are under cmd/ and examples/.
package snb

// Version identifies the reproduction release.
const Version = "1.0.0"
