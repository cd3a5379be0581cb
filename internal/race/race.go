//go:build race

// Package race reports whether the binary was built with the race
// detector. Allocation guards consult it: under -race, sync.Pool drops a
// random share of Put items, so pooled paths allocate by design.
package race

// Enabled is true in -race builds.
const Enabled = true
