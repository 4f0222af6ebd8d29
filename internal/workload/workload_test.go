package workload

import (
	"strings"
	"testing"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/cpusim"
	"hpcmetrics/internal/netsim"
)

func validBlock(name string) Block {
	return Block{
		Name: name,
		Work: cpusim.Work{Flops: 10, MemOps: 5},
		Stream: access.StreamSpec{
			WorkingSetBytes: 1 << 20,
			Mix:             access.Mix{Unit: 1},
		},
		Iters: 100,
	}
}

func validApp() *App {
	return &App{
		Name: "demo", Case: "standard", Procs: 8,
		Blocks:           []Block{validBlock("a"), validBlock("b")},
		Comm:             []netsim.Event{{Op: netsim.OpAllReduce, Bytes: 8, Count: 10}},
		RuntimeImbalance: 1.0,
	}
}

func TestValidAppPasses(t *testing.T) {
	if err := validApp().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppID(t *testing.T) {
	if got := validApp().ID(); got != "demo-standard" {
		t.Fatalf("ID = %q", got)
	}
}

// TestIdentityFormat pins the identity bytes. CellID is the input of the
// observation-noise hash (so Table 4 depends on it), the checkpoint
// journal's record keys and the fault identities: changing either format
// changes results and orphans old journals.
func TestIdentityFormat(t *testing.T) {
	if got := AppID("avus", "standard"); got != "avus-standard" {
		t.Errorf("AppID = %q, want %q", got, "avus-standard")
	}
	if got := CellID("avus-standard", 64); got != "avus-standard@64" {
		t.Errorf("CellID = %q, want %q", got, "avus-standard@64")
	}
	if got := CellID(AppID("rfcth", "light"), 1408); got != "rfcth-light@1408" {
		t.Errorf("CellID = %q, want %q", got, "rfcth-light@1408")
	}
}

func TestAppValidationFailures(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*App)
		want string
	}{
		{"unnamed", func(a *App) { a.Name = "" }, "unnamed"},
		{"bad procs", func(a *App) { a.Procs = 0 }, "procs"},
		{"no blocks", func(a *App) { a.Blocks = nil }, "no blocks"},
		{"duplicate block", func(a *App) { a.Blocks[1].Name = "a" }, "duplicate"},
		{"negative comm", func(a *App) { a.Comm[0].Count = -1 }, "negative comm"},
		{"imbalance below 1", func(a *App) { a.RuntimeImbalance = 0.9 }, "imbalance"},
		{"unnamed block", func(a *App) { a.Blocks[0].Name = "" }, "unnamed"},
		{"zero iters", func(a *App) { a.Blocks[0].Iters = 0 }, "iterations"},
		{"no memory ops", func(a *App) { a.Blocks[0].Work.MemOps = 0 }, "memory"},
		{"bad work", func(a *App) { a.Blocks[0].Work.Flops = -1 }, "negative"},
		{"bad stream", func(a *App) { a.Blocks[0].Stream.Mix = access.Mix{} }, "mix"},
	}
	for _, tc := range cases {
		app := validApp()
		tc.mut(app)
		err := app.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestBlockCounts(t *testing.T) {
	b := validBlock("x")
	if got := b.FlopCount(); got != 1000 {
		t.Errorf("FlopCount = %g, want 1000", got)
	}
}

func TestAppTotals(t *testing.T) {
	app := validApp()
	if got := app.TotalFlops(); got != 2000 {
		t.Errorf("TotalFlops = %g, want 2000", got)
	}
}
