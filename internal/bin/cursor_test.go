package bin

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestCursorReadsInOrder(t *testing.T) {
	b := []byte{
		7,          // u8
		0x34, 0x12, // u16
		0x78, 0x56, 0x34, 0x12, // u32
		8, 7, 6, 5, 4, 3, 2, 1, // u64
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // f64 1.0
		2,        // flags
		'h', 'i', // str
		9, 9, // rest
	}
	c := Read("test", b)
	if v := c.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := c.U16(); v != 0x1234 {
		t.Fatalf("U16 = %#x", v)
	}
	if v := c.U32(); v != 0x12345678 {
		t.Fatalf("U32 = %#x", v)
	}
	if v := c.U64(); v != 0x0102030405060708 {
		t.Fatalf("U64 = %#x", v)
	}
	if v := c.F64(); v != 1.0 {
		t.Fatalf("F64 = %v", v)
	}
	if v := c.Flags(3); v != 2 {
		t.Fatalf("Flags = %d", v)
	}
	if v := c.Str(2); v != "hi" {
		t.Fatalf("Str = %q", v)
	}
	if v := c.Rest(); len(v) != 2 || &v[0] != &b[len(b)-2] {
		t.Fatalf("Rest = %v, want the input's last two bytes, aliased", v)
	}
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestCursorFirstErrorSticks(t *testing.T) {
	c := Read("test: thing", []byte{1, 2, 3})
	if v := c.U32(); v != 0 {
		t.Fatalf("short U32 = %d, want 0", v)
	}
	first := c.Done()
	if first == nil || !strings.HasPrefix(first.Error(), "test: thing: truncated") {
		t.Fatalf("short read: %v", first)
	}
	// Everything after the first error reads as zero and changes nothing.
	if c.U8() != 0 || c.Str(1) != "" || c.Rest() != nil || c.Count(1) != 0 || c.Flags(0xff) != 0 {
		t.Fatal("a failed cursor kept reading")
	}
	c.Failf("later")
	if got := c.Done(); got != first {
		t.Fatalf("error changed from %v to %v", first, got)
	}
}

func TestCursorRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
		read func(c *Cursor)
		want string // substring of the error; "" = must succeed
	}{
		{"trailing byte", []byte{1, 2}, func(c *Cursor) { c.U8() }, "1 trailing bytes"},
		{"exact", []byte{1, 2}, func(c *Cursor) { c.U16() }, ""},
		{"unknown flag bit", []byte{5}, func(c *Cursor) { c.Flags(1) }, "unknown flag bits 0x4"},
		{"count fits exactly", []byte{2, 0, 0, 0, 9, 9, 9, 9}, func(c *Cursor) {
			if n := c.Count(2); n != 2 {
				c.Failf("Count = %d", n)
			}
			c.Rest()
		}, ""},
		{"count one past the bytes", []byte{3, 0, 0, 0, 9, 9, 9, 9}, func(c *Cursor) { c.Count(2) }, "count 3 exceeds"},
		{"count that would wrap n*size", []byte{0, 0, 0, 0x40, 9, 9, 9, 9}, func(c *Cursor) { c.Count(4) }, "exceeds"},
		{"count near 2^32", []byte{0xff, 0xff, 0xff, 0xff}, func(c *Cursor) { c.Count(1) }, "exceeds"},
		{"string longer than the value", []byte{9, 'a'}, func(c *Cursor) { c.Str(int(c.U8())) }, "truncated: 9 bytes wanted, 1 left"},
		{"negative length", []byte{1}, func(c *Cursor) { c.Str(-1) }, "truncated"},
		{"empty string at the end", []byte{0}, func(c *Cursor) {
			if s := c.Str(int(c.U8())); s != "" {
				c.Failf("Str = %q", s)
			}
		}, ""},
		{"nan survives", []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f}, func(c *Cursor) {
			if v := c.F64(); math.Float64bits(v) != 0x7ff8000000000001 {
				c.Failf("F64 bits = %#x", math.Float64bits(v))
			}
		}, ""},
	} {
		c := Read("t", tc.b)
		tc.read(&c)
		err := c.Done()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestVia(t *testing.T) {
	pair := func(b []byte) ([2]byte, []byte, error) {
		if len(b) < 2 {
			return [2]byte{}, nil, errors.New("short pair")
		}
		return [2]byte{b[0], b[1]}, b[2:], nil
	}
	c := Read("t", []byte{1, 2, 3, 4, 5})
	if v := Via(&c, pair); v != [2]byte{1, 2} {
		t.Fatalf("first pair = %v", v)
	}
	if v := Via(&c, pair); v != [2]byte{3, 4} {
		t.Fatalf("second pair = %v", v)
	}
	if v := Via(&c, pair); v != [2]byte{} {
		t.Fatalf("short pair = %v, want zero", v)
	}
	if err := c.Done(); err == nil || err.Error() != "t: short pair" {
		t.Fatalf("Done = %v, want the consumer's error", err)
	}
	if Via(&c, func([]byte) (int, []byte, error) { t.Fatal("consumer ran on a failed cursor"); return 0, nil, nil }) != 0 {
		t.Fatal("Via on a failed cursor returned a value")
	}
}
