// Package ids is a fixture dependency: a node ID type to key maps on.
package ids

type ID uint64
