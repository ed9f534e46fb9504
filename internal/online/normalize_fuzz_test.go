package online_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/generator"
	"repro/internal/mmd"
	"repro/internal/online"
)

// FuzzNormalizeMatchesReference pins Normalize to ReferenceNormalize
// bit for bit: gamma, D, and every budget, cost, capacity, load and
// utility of the normalized copy compare equal by math.Float64bits,
// the same error comes back when one does, and the input is left as it
// was, also after the copy is overwritten.
func FuzzNormalizeMatchesReference(f *testing.F) {
	inf := math.Inf(1)
	// Infinite and zero budgets: an unconstrained measure, one that
	// only zero-cost streams may use, and a capacity of each kind.
	f.Add(encodeInstance(&mmd.Instance{
		Budgets: []float64{inf, 0, 7},
		Streams: []mmd.Stream{{Costs: []float64{3, 0, 2}}, {Costs: []float64{5, 0, 0}}, {Costs: []float64{1, 0, 7}}},
		Users: []mmd.User{
			{Utility: []float64{4, 1, 2}, Loads: [][]float64{{1, 2, 3}, {2, 0, 1}}, Capacities: []float64{inf, 6}},
			{Utility: []float64{0, 3, 9}, Loads: [][]float64{{1, 1, 1}, {0, 0, 0}}, Capacities: []float64{0, inf}},
		},
	}))
	// Every budget and capacity infinite: D is 0 and both refuse.
	f.Add(encodeInstance(&mmd.Instance{
		Budgets: []float64{inf},
		Streams: []mmd.Stream{{Costs: []float64{1}}},
		Users:   []mmd.User{{Utility: []float64{1}, Loads: [][]float64{{1}}, Capacities: []float64{inf}}},
	}))
	// Zero-cost and unsupported streams: stream 0 costs nothing
	// anywhere, stream 2 is wanted by no one, stream 3 has one user.
	f.Add(encodeInstance(&mmd.Instance{
		Budgets: []float64{10, 4},
		Streams: []mmd.Stream{{Costs: []float64{0, 0}}, {Costs: []float64{2, 1}}, {Costs: []float64{3, 2}}, {Costs: []float64{0, 1}}},
		Users: []mmd.User{
			{Utility: []float64{1, 2, 0, 0}, Loads: [][]float64{{0, 1, 5, 0}}, Capacities: []float64{3}},
			{Utility: []float64{5, 0, 0, 8}, Loads: [][]float64{{0, 0, 0, 0}}, Capacities: []float64{2}},
		},
	}))
	// A user with no capacity measure next to one with two.
	f.Add(encodeInstance(&mmd.Instance{
		Budgets: []float64{6},
		Streams: []mmd.Stream{{Costs: []float64{2}}, {Costs: []float64{1}}},
		Users: []mmd.User{
			{Utility: []float64{3, 1}},
			{Utility: []float64{2, 2}, Loads: [][]float64{{1, 1}, {2, 0.5}}, Capacities: []float64{4, inf}},
		},
	}))
	// The perfbench workloads' head-ends: the 40 x 10 instances of
	// ingest-uniform, flash-durable and fleet-router, and
	// churn-resolve's 120 x 40.
	for _, g := range []generator.CableTV{
		{Channels: 40, Gateways: 10, Seed: 200, EgressFraction: 0.25},
		{Channels: 40, Gateways: 10, Seed: 207, EgressFraction: 0.25},
		{Channels: 120, Gateways: 40, Seed: 300, EgressFraction: 0.25},
		{Channels: 120, Gateways: 40, Seed: 307, EgressFraction: 0.25},
	} {
		in, err := g.Generate()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeInstance(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeInstance(data)
		before := encodeInstance(in)
		got, gotErr := online.Normalize(in)
		want, wantErr := online.ReferenceNormalize(in)
		if gotErr != wantErr {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		if after := encodeInstance(in); string(after) != string(before) {
			t.Fatal("Normalize changed its input")
		}
		if wantErr != nil {
			return
		}
		if got.D != want.D || math.Float64bits(got.Gamma) != math.Float64bits(want.Gamma) {
			t.Fatalf("D %d gamma %v, reference D %d gamma %v", got.D, got.Gamma, want.D, want.Gamma)
		}
		if g, w := encodeInstance(got.Instance), encodeInstance(want.Instance); string(g) != string(w) {
			t.Fatalf("normalized instance differs from the reference's\ngot  %v\nwant %v", got.Instance, want.Instance)
		}
		// The copy is the policy's own (a leave zeroes its utility
		// rows): clearing all of it must leave the input as it was.
		out := got.Instance
		clear(out.Budgets)
		for s := range out.Streams {
			clear(out.Streams[s].Costs)
		}
		for u := range out.Users {
			usr := &out.Users[u]
			clear(usr.Utility)
			clear(usr.Capacities)
			for _, row := range usr.Loads {
				clear(row)
			}
		}
		if after := encodeInstance(in); string(after) != string(before) {
			t.Fatal("the normalized copy shares memory with the input")
		}
	})
}

// encodeInstance writes a well-shaped instance as decodeInstance reads
// it: a header of stream and user counts (two bytes each), the budget
// count and every user's capacity count (one byte each), then every
// float's bits, little-endian: budgets, each stream's costs, and each
// user's utilities, capacities and load rows.
func encodeInstance(in *mmd.Instance) []byte {
	out := binary.LittleEndian.AppendUint16(nil, uint16(in.NumStreams()))
	out = binary.LittleEndian.AppendUint16(out, uint16(in.NumUsers()))
	out = append(out, byte(in.M()))
	for u := range in.Users {
		out = append(out, byte(len(in.Users[u].Capacities)))
	}
	floats := func(row []float64) {
		for _, v := range row {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	floats(in.Budgets)
	for s := range in.Streams {
		floats(in.Streams[s].Costs)
	}
	for u := range in.Users {
		usr := &in.Users[u]
		floats(usr.Utility)
		floats(usr.Capacities)
		for _, row := range usr.Loads {
			floats(row)
		}
	}
	return out
}

// decodeInstance reads what encodeInstance writes. Counts are bounded
// (256 streams, 64 users, 8 budgets, 4 capacities a user) and floats
// past the end of data read as zero, so every input gives a well-shaped
// instance.
func decodeInstance(data []byte) *mmd.Instance {
	next := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	nS := int(binary.LittleEndian.Uint16(next(2))) % 257
	nU := int(binary.LittleEndian.Uint16(next(2))) % 65
	m := int(next(1)[0]) % 9
	in := &mmd.Instance{Streams: make([]mmd.Stream, nS), Users: make([]mmd.User, nU)}
	mc := next(nU)
	row := func(n int) []float64 {
		if n == 0 {
			return nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(next(8)))
		}
		return out
	}
	in.Budgets = row(m)
	for s := range in.Streams {
		in.Streams[s].Costs = row(m)
	}
	for u := range in.Users {
		usr := &in.Users[u]
		usr.Utility = row(nS)
		usr.Capacities = row(int(mc[u]) % 5)
		usr.Loads = make([][]float64, len(usr.Capacities))
		for j := range usr.Loads {
			usr.Loads[j] = row(nS)
		}
	}
	return in
}
