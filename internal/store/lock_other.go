//go:build !unix

package store

import "os"

// Without flock a handle cannot tell a finished segment from a live one:
// it treats every other writer's segment as live, rescanning its tail on
// misses and never repairing it.

func lockExclusive(*os.File) error { return nil }

func unlockedByWriters(*os.File) bool { return false }
