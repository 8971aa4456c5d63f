//go:build unix

package store

import (
	"os"
	"syscall"
)

// lockExclusive takes the writer lock on a new segment. It waits only for
// a scanner's momentary shared lock.
func lockExclusive(f *os.File) error {
	return flock(f, syscall.LOCK_EX)
}

// unlockedByWriters reports that no writer holds f's segment — it has
// closed or died, and the segment is final. The shared lock it takes
// lasts until f is closed.
func unlockedByWriters(f *os.File) bool {
	return flock(f, syscall.LOCK_SH|syscall.LOCK_NB) == nil
}

func flock(f *os.File, how int) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var ferr error
	if err := rc.Control(func(fd uintptr) {
		for {
			if ferr = syscall.Flock(int(fd), how); ferr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	return ferr
}
