package thrifty

import (
	"testing"
)

// BenchmarkArrive measures the pure arrival word cost with a single
// party (every call is the releaser: one claim CAS plus round swap).
func BenchmarkArrive(b *testing.B) {
	bar := New(1, Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bar.WaitSite(0x1)
	}
}
