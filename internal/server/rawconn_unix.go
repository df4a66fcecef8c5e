//go:build unix

package server

import "syscall"

// initRaw gives the read loop's inline flush direct access to the socket's
// file descriptor, when it has one.
func (c *conn) initRaw() {
	if sc, ok := c.nc.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			c.raw, c.rawWrite = raw, c.writeFD
		}
	}
}

// writeFD is rawWrite: one write(2) of rawBuf that never waits for the
// socket to become writable (returning true ends RawConn.Write at once).
func (c *conn) writeFD(fd uintptr) bool {
	if n, err := syscall.Write(int(fd), c.rawBuf); err == nil {
		c.rawN = n
	}
	return true
}
