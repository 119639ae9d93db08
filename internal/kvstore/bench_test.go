package kvstore

import (
	"encoding/binary"
	"testing"
)

// BenchmarkPutGet measures the in-memory store (the MDS hot path).
func BenchmarkPutGet(b *testing.B) {
	s, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	key := make([]byte, 8)
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(key, uint64(i%65536))
		if i%2 == 0 {
			if err := s.Put(key, val); err != nil {
				b.Fatal(err)
			}
		} else {
			s.Get(key)
		}
	}
}
