package core

import (
	"testing"

	"repro/internal/generator"
)

func BenchmarkSolvePipeline(b *testing.B) {
	for _, size := range []struct{ s, u int }{{30, 8}, {100, 20}, {300, 40}} {
		in, err := generator.RandomMMD{
			Streams: size.s, Users: size.u, M: 3, MC: 2, Seed: 11, Skew: 8,
		}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(label(size.s, size.u), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Solve(in, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDirectGreedy(b *testing.B) {
	in, err := generator.RandomMMD{Streams: 100, Users: 20, M: 3, MC: 2, Seed: 12, Skew: 4}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = new(Workspace).directGreedy(in, in.InterestedUsers())
	}
}

func label(s, u int) string {
	digits := func(x int) string {
		if x == 0 {
			return "0"
		}
		var buf [8]byte
		i := len(buf)
		for x > 0 {
			i--
			buf[i] = byte('0' + x%10)
			x /= 10
		}
		return string(buf[i:])
	}
	return "s" + digits(s) + "u" + digits(u)
}
