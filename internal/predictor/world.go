package predictor

import (
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/trace"
)

// World is the simulated platform beyond its machine presets: the
// run-to-run variability of observed times, and the switches that ablate
// one model ingredient at a time. Every observed time (the base run
// behind a cell, the target run behind an observation) passes through
// it. The zero World is the plain model that predictd, cmd/predict and
// the library serve; the study's paper reproduction sets Noise.
type World struct {
	// Noise scales every observed time by its deterministic observation
	// noise (see NoiseAmplitude).
	Noise bool
	// IdleMemory runs applications on idle-node memory, removing the
	// probe-vs-production loaded-memory gap. Probes and traces still see
	// the presets as they are.
	IdleMemory bool
	// NoDependencyFlags blinds the tracer's dependency analysis, so
	// Metric #9 degenerates to Metric #8.
	NoDependencyFlags bool
}

// NoiseAmplitude is the deterministic stand-in for run-to-run variability
// of real observed times (OS jitter, placement, I/O): under World.Noise
// every observed time is scaled by a factor in [1-amp, 1+amp] hashed from
// its (cell, machine) identity. The paper's observed times carry such
// noise inherently; without it, a target machine that happens to resemble
// the base would be predicted with implausibly perfect accuracy.
const NoiseAmplitude = 0.10

// observationNoise returns the deterministic noise factor for one cell
// ("app-case@procs") on one machine.
func observationNoise(cell, machineName string) float64 {
	var h uint64 = 1469598103934665603 // FNV-1a over "cell|machine"
	for _, s := range []string{cell, "|", machineName} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	u := float64(h>>11) / float64(uint64(1)<<53) // uniform [0,1)
	return 1 + NoiseAmplitude*(2*u-1)
}

// observe applies the noise to one observed time of cell on machineName.
func (w World) observe(seconds float64, cell, machineName string) float64 {
	if !w.Noise {
		return seconds
	}
	return seconds * observationNoise(cell, machineName)
}

// runOn returns the machine an application run executes on: cfg itself,
// or under IdleMemory a copy with its loaded-memory gap removed.
func (w World) runOn(cfg *machine.Config) *machine.Config {
	if !w.IdleMemory {
		return cfg
	}
	out := cfg.Clone()
	out.MemLoadedFraction = 1
	out.MemLoadedLatencyFactor = 1
	return out
}

// traced applies the world to a freshly collected trace.
func (w World) traced(tr *trace.Trace) *trace.Trace {
	if w.NoDependencyFlags {
		for i := range tr.Blocks {
			tr.Blocks[i].ILPLimited = false
		}
	}
	return tr
}
