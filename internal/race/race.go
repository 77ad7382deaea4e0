//go:build race

// Package race reports whether the race detector is built in. The
// allocation pins skip under it: its instrumentation allocates.
package race

// Enabled is true in a -race build.
const Enabled = true
