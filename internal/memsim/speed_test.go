package memsim

import (
	"testing"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/machine"
)

// benchAccess times one reference (ns/op = ns/ref) of the spec's stream on
// every preset, so the 128-way L1 over a direct-mapped L2 (MHPCC_P3,
// NAVO_P3), the direct-mapped L2 of ASC_SC45 and the three-level
// hierarchies (MHPCC_690_1.3, ARL_Altix) are all timed.
func benchAccess(b *testing.B, spec access.StreamSpec) {
	for _, name := range machine.Names() {
		b.Run(name, func(b *testing.B) {
			sim, err := New(machine.MustPreset(name))
			if err != nil {
				b.Fatal(err)
			}
			stream, err := access.NewStream(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref := stream.Next()
				sim.Access(ref.Addr, ref.Store)
			}
		})
	}
}

func BenchmarkAccessUnit(b *testing.B) {
	benchAccess(b, access.StreamSpec{WorkingSetBytes: 32 << 20, Mix: access.Mix{Unit: 1}, Seed: 1})
}

func BenchmarkAccessRandom(b *testing.B) {
	benchAccess(b, access.StreamSpec{WorkingSetBytes: 256 << 20, Mix: access.Mix{Random: 1}, Seed: 1})
}
