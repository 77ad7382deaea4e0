// Package server mirrors the error returns of internal/server for the
// wireerr golden tests.
package server

import (
	"errors"
	"fmt"

	"splitfs/internal/vfs"
)

// Errors returned across the wire must wrap a sentinel.

func badOpaque(path string) error {
	return fmt.Errorf("server: open %s failed", path) // want `returned fmt.Errorf error does not wrap with %w`
}

func badNew() error {
	return errors.New("server: handshake failed") // want `returned errors.New error cannot round-trip the wire`
}

// A sentinel formatted with %v, as the ctl socket's unknown session once
// could be (DESIGN.md "Static analysis", mutant W3): no tier-1 test
// matches that error with errors.Is.
func badVerbOverSentinel(id uint64) ([]byte, error) {
	return nil, fmt.Errorf("server: ctl: session %d: %v", id, vfs.ErrNotExist) // want `returned fmt.Errorf error does not wrap with %w`
}

// A decoded reply error formatted with %v, as a resumed handle's reopen
// failure once could be (mutant W5): the code it came back with is lost.
func badVerbOverReply(id uint64, reply error) error {
	return fmt.Errorf("server: reopen handle %d: %v", id, reply) // want `returned fmt.Errorf error does not wrap with %w`
}

func okWrapped(path string) error {
	return fmt.Errorf("server: open %s: %w", path, vfs.ErrNotExist)
}

func okSentinel() error {
	return vfs.ErrClosed
}

func okSuppressed() error {
	//lint:ignore splitfs-wireerr golden test exercises suppression
	return errors.New("server: deliberate opaque error")
}
