//go:build !unix

package server

// initRaw leaves c.raw nil off Unix: every flush of the read loop then
// nudges the writer goroutine instead of writing inline.
func (c *conn) initRaw() {}
