package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers wake a parked thread
// through epoll with millisecond resolution, which would make the
// open-loop generator up to a millisecond late on every batch; a direct
// nanosleep wakes within the kernel's timer slack (about 50us).
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
