// Package bin is the one bounds-checked reader under every wire body and
// store value this repository decodes. A decoder is a list of field reads in
// encoding order ending in Done: the first short read, unknown flag bit or
// impossible count sticks, every later read returns zero, and no count is
// believed until the bytes left could hold that many elements — so hostile
// input costs at most its own length in allocation and never a panic.
// Everything is little-endian, like every codec in this repository.
package bin

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Cursor reads fields off the front of a byte slice.
type Cursor struct {
	what string
	b    []byte
	err  error
}

// Read starts a cursor over b; what names the value in errors ("rpc: hello").
func Read(what string, b []byte) Cursor { return Cursor{what: what, b: b} }

// take consumes n bytes, or fails the cursor and returns nil.
func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.Failf("truncated: %d bytes wanted, %d left", n, len(c.b))
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *Cursor) U8() uint8 {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (c *Cursor) U16() uint16 {
	if p := c.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (c *Cursor) U32() uint32 {
	if p := c.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (c *Cursor) U64() uint64 {
	if p := c.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// F64 reads a float64 as its exact bit pattern: a mined degree must survive
// the wire and the store bit-identically for fingerprints to agree.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Str reads n bytes as a string; the length prefix is the caller's field.
func (c *Cursor) Str(n int) string { return string(c.take(n)) }

// Rest consumes and returns every unread byte (aliasing the input).
func (c *Cursor) Rest() []byte { return c.take(len(c.b)) }

// Flags reads a flag byte and refuses any bit outside known.
func (c *Cursor) Flags(known uint8) uint8 {
	f := c.U8()
	if f&^known != 0 {
		c.Failf("unknown flag bits %#x", f&^known)
		return 0
	}
	return f
}

// Count reads a u32 element count and refuses one the unread bytes could not
// hold at elemMin (> 0) bytes per element — before the caller allocates.
func (c *Cursor) Count(elemMin int) int {
	n := int(c.U32())
	if n < 0 || n > len(c.b)/elemMin {
		c.Failf("count %d exceeds what the %d bytes left can hold", n, len(c.b))
		return 0
	}
	return n
}

// Failf records a decode error of the caller's own (a semantic check the
// format implies); only the first error is kept.
func (c *Cursor) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%s: %s", c.what, fmt.Sprintf(format, args...))
	}
}

// Via decodes one value with a consumer that keeps its own bounds checks
// (trace.ConsumeRecord) and resumes after the bytes it used.
func Via[T any](c *Cursor, consume func([]byte) (T, []byte, error)) (v T) {
	if c.err != nil {
		return v
	}
	v, rest, err := consume(c.b)
	if err != nil {
		c.Failf("%v", err)
		return v
	}
	c.b = rest
	return v
}

// Done ends a decode: the first error, or an error if bytes are left over.
func (c *Cursor) Done() error {
	if c.err == nil && len(c.b) != 0 {
		c.Failf("%d trailing bytes", len(c.b))
	}
	return c.err
}
