package detrand

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// compareStreams drives got and want through the same nDraws mixed
// calls, chosen by pick so that every rand.Rand entry point the repo
// uses lands on both sides of the 273-draw hand-over.
func compareStreams(t *testing.T, seed int64, got, want *rand.Rand, nDraws int) {
	t.Helper()
	pick := rand.New(rand.NewSource(seed ^ 0x5eed))
	for d := 0; d < nDraws; d++ {
		var g, w interface{}
		op := pick.Intn(10)
		switch op {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			n := 1 + pick.Intn(1000)
			g, w = got.Intn(n), want.Intn(n)
		case 2:
			n := 1 + pick.Int63n(math.MaxInt64-1)
			g, w = got.Int63n(n), want.Int63n(n)
		case 3:
			g, w = got.Uint32(), want.Uint32()
		case 4:
			g, w = got.Int63(), want.Int63()
		case 5:
			g, w = got.Uint64(), want.Uint64()
		case 6:
			n := pick.Intn(12)
			g, w = got.Perm(n), want.Perm(n)
		case 7:
			a, b := make([]int, 9), make([]int, 9)
			got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j]+i, a[i]+j })
			want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j]+i, b[i]+j })
			g, w = a, b
		case 8:
			a, b := make([]byte, pick.Intn(20)), make([]byte, 20)
			b = b[:len(a)]
			got.Read(a)
			want.Read(b)
			g, w = a, b
		case 9:
			g, w = got.NormFloat64(), want.NormFloat64()
		}
		if !equal(g, w) {
			t.Fatalf("seed %d: call %d (op %d) = %v, math/rand gives %v", seed, d, op, g, w)
		}
	}
}

func equal(a, b interface{}) bool {
	switch x := a.(type) {
	case []int:
		y := b.([]int)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case []byte:
		return bytes.Equal(x, b.([]byte))
	}
	return a == b
}

func TestSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 2, 7, 89482311, -89482311, 20170419,
		m - 1, m, m + 1, -m, -m - 1, -m + 1, 2 * m, -2 * m, 3*m + 5, -7*m - 11,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	}
	mix := rand.New(rand.NewSource(14))
	for i := 0; i < 120; i++ {
		seeds = append(seeds, int64(mix.Uint64()))
	}
	for _, seed := range seeds {
		// Raw source first: 1500 draws cross the hand-over and wrap the
		// 607-word register twice.
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for d := 0; d < 1500; d++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, d+1, g, w)
			}
		}
		compareStreams(t, seed, New(seed), rand.New(rand.NewSource(seed)), 900)
	}
}

// Re-seeding mid-stream must restart the stream (and drop buffered
// Read bytes) exactly as math/rand does, before and after hand-over.
func TestReseed(t *testing.T) {
	for _, before := range []int{0, 1, 5, 272, 273, 274, 700} {
		got, want := New(3), rand.New(rand.NewSource(3))
		var buf [3]byte
		got.Read(buf[:])
		want.Read(buf[:])
		for d := 0; d < before; d++ {
			got.Int63()
			want.Int63()
		}
		got.Seed(-99)
		want.Seed(-99)
		compareStreams(t, int64(before), got, want, 700)
	}
}

var sink int64

// The point of the package: a generator costs one small allocation, not
// a 5.4 KB register. (The *rand.Rand itself stays on the caller's stack
// when it does not escape; callers that return it pay a second, 48 B.)
func TestNewAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(200, func() {
		sink += New(sink).Int63()
	})
	if allocs > 1 {
		t.Fatalf("New + one draw: %v allocs, want <= 1", allocs)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sink += New(int64(i)).Int63()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 64 {
		t.Fatalf("New + one draw: %d B, want <= 64", got)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(10))
	f.Add(int64(89482311), uint16(273))
	f.Add(int64(-1), uint16(274))
	f.Add(int64(1<<31-1), uint16(900))
	f.Add(int64(math.MinInt64), uint16(1300))
	f.Fuzz(func(t *testing.T, seed int64, nDraws uint16) {
		n := int(nDraws) % 2000
		compareStreams(t, seed, New(seed), rand.New(rand.NewSource(seed)), n)
	})
}

func BenchmarkNewOneDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += New(int64(i)).Int63()
	}
}

func BenchmarkMathRandOneDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += rand.New(rand.NewSource(int64(i))).Int63()
	}
}
